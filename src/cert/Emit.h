//===----------------------------------------------------------------------===//
///
/// \file
/// Certificate emission: converts each engine's fixpoint evidence into
/// the serialized certificate format of cert/Certificate.h. Emission
/// runs on the untrusted side of the proof-carrying boundary — a wrong
/// certificate is caught by cert::Checker, never silently accepted —
/// so the emitters are free to share driver-side data structures.
///
/// The boolean-program emitter applies the abstraction-carrying-code
/// size reduction: a per-point state is omitted whenever the checker
/// can reconstruct it deterministically (single in-edge from an earlier
/// annotated point), and the emitter *verifies* the reconstruction
/// reproduces the engine's value before pruning, so pruning can never
/// change what the checker accepts.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_CERT_EMIT_H
#define CANVAS_CERT_EMIT_H

#include "boolprog/Analysis.h"
#include "boolprog/Interprocedural.h"
#include "cert/Certificate.h"
#include "core/GenericBaseline.h"
#include "dataflow/Dataflow.h"
#include "tvla/Certify.h"

namespace canvas {
namespace cert {

/// Certificate for one method's intraprocedural possible-value run.
/// \p R must come from the unpartitioned program built by
/// buildBooleanProgram(Abs, M) with entry state "every variable Both"
/// — the checker rebuilds exactly that program from trusted inputs.
Certificate emitBoolIntra(const bp::BooleanProgram &BP,
                          const bp::IntraResult &R,
                          bool AssumeChecksPass = true);

/// Certificate for one method whose boolean program \p BP was built
/// over the slice partition \p Parts (bp::buildBooleanProgram with
/// parts): the partition, the evidence that it is sound — the
/// definite-assignment fixpoint as a must-assigned annotation — and the
/// program's one possible-value annotation (same encoding as
/// emitBoolIntra).
/// Claims index BP.Checks, which is the unpartitioned program's check
/// list. \p MayUninit is the per-node definite-assignment fixpoint of
/// the method (empty inner vector = entry-unreachable node).
Certificate
emitSlicePartition(const std::vector<std::vector<std::string>> &Parts,
                   const bp::BooleanProgram &BP, const bp::IntraResult &R,
                   const std::vector<dataflow::BitVector> &MayUninit,
                   bool AssumeChecksPass = true);

/// Certificate for a whole-program interprocedural solve: the full
/// path-edge set plus the genuine (procedure, entry fact) relation.
Certificate emitIfds(const bp::InterprocModel &Model,
                     const bp::IfdsTabulation &Tab);

/// Certificate for one method's TVLA run (either configuration): the
/// per-point resident structure sets.
Certificate emitTvla(const wp::DerivedAbstraction &Abs,
                     const cj::CFGMethod &M,
                     const tvla::PointAnnotation &Ann,
                     const tvla::TVLAResult &R, bool Relational);

/// Certificate for one method's allocation-site baseline run: per-point
/// states, the summarized-site set, and the obligation site list.
Certificate emitAllocSite(const cj::CFGMethod &M,
                          const core::BaselineAnnotation &Ann,
                          const core::BaselineResult &R);

/// Structure / abstract-state codecs shared with cert::Checker (the
/// byte layout must match on both sides of the boundary; the checker
/// additionally validates value ranges and canonical form).
void writeStructure(Writer &W, const tvla::Structure &S,
                    const tvp::Vocabulary &V);
bool readStructure(Reader &R, const tvp::Vocabulary &V, tvla::Structure &Out,
                   std::string &Error);

void writeLocSet(Writer &W, const core::baseline::LocSet &L);
bool readLocSet(Reader &R, core::baseline::LocSet &Out);
void writeAbsState(Writer &W, const core::baseline::AbsState &St);
bool readAbsState(Reader &R, core::baseline::AbsState &Out);

} // namespace cert
} // namespace canvas

#endif // CANVAS_CERT_EMIT_H
