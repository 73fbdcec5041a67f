//===----------------------------------------------------------------------===//
///
/// \file
/// Content hashing of certification inputs for the persistent
/// certificate store: a context fingerprint folding everything that
/// invalidates the whole store at once (spec source, derived
/// abstraction, engine, option knobs, entry-format version), and
/// per-unit input hashes over the client CFGs. A method's hash covers
/// its own CFG shape plus the transitive closure of its client callees,
/// so editing a callee re-keys every caller whose analysis could
/// observe it; the whole-program hash (for the interprocedural engine)
/// covers every method.
///
/// The hashes are pure cache keys, not trust anchors: a colliding or
/// stale entry is still gated by the independent cert::Checker before
/// its verdicts are served (see store/CertStore.h).
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_STORE_INPUTHASH_H
#define CANVAS_STORE_INPUTHASH_H

#include "client/CFG.h"

#include <cstdint>
#include <map>
#include <string>

namespace canvas {
namespace store {

/// The store entry format version, folded into every context
/// fingerprint so a layout change invalidates old entries wholesale
/// instead of misparsing them. Version 2: SCMPIntra witnesses are read
/// off the possible-value fixpoint, which breaks ties between
/// equal-length paths differently, so version-1 entries carry stale
/// witness text. Version 3: a SlicePartition certificate carries one
/// annotation over the partitioned program instead of one per slice,
/// and every method that splits gets one (no unsliced fallback).
/// Version 4: entries drop the slice summary, and the store keeps them
/// as frames of one log instead of one file each.
inline constexpr uint32_t EntryFormatVersion = 4;

/// Folds the run-wide certification context into one seed: the FNV-1a
/// hash of the spec source, the derived abstraction's rendering, and
/// the engine name.
uint64_t contextFingerprint(uint64_t SpecHash, const std::string &AbsText,
                            const std::string &EngineName);

/// Per-method input hashes keyed by "Class::method". Each hash folds
/// \p Context, the method's local CFG (nodes, edges, actions with
/// locations, component variables, parameters), and the closure of its
/// resolved client callees; an on-stack cycle folds the callee's name
/// only, which is sound because every member of the cycle already
/// folds every other member's local hash transitively. The client
/// front end rejects a class defined twice and a method defined twice
/// in one class, so a name identifies one method.
std::map<std::string, uint64_t> methodInputHashes(const cj::ClientCFG &CFG,
                                                  uint64_t Context);

/// Whole-program input hash: \p Context plus every method's local hash
/// in method order. Keys the interprocedural engine's single entry.
uint64_t programInputHash(const cj::ClientCFG &CFG, uint64_t Context);

} // namespace store
} // namespace canvas

#endif // CANVAS_STORE_INPUTHASH_H
