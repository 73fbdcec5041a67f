//===----------------------------------------------------------------------===//
///
/// \file
/// String escaping for the JSON lines the tools print: SHARD_JSONL rows,
/// BENCH_JSON lines, and store snapshot/diff rows.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_SUPPORT_JSON_H
#define CANVAS_SUPPORT_JSON_H

#include <cstdio>
#include <string>

namespace canvas {
namespace support {

/// Escapes \p S for a JSON string literal: quotes and backslashes, \n and
/// \t by name, every other control byte as \u00XX.
inline std::string jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C == '\t') {
      Out += "\\t";
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out;
}

} // namespace support
} // namespace canvas

#endif // CANVAS_SUPPORT_JSON_H
