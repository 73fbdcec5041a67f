//===----------------------------------------------------------------------===//
///
/// \file
/// Kleene's 3-valued truth values and connectives (Section 5.5).
///
/// The value Half ("1/2") denotes "may be 0 or 1". The information order
/// places 0 and 1 below Half; join in that order is used when blurring
/// structures during canonical abstraction and when the independent-
/// attribute engine merges structures.
///
//===----------------------------------------------------------------------===//

#ifndef CANVAS_LOGIC_KLEENE_H
#define CANVAS_LOGIC_KLEENE_H

#include <cstdint>

namespace canvas {

enum class Kleene : uint8_t { False = 0, True = 1, Half = 2 };

inline Kleene kleeneOf(bool B) { return B ? Kleene::True : Kleene::False; }

/// Kleene conjunction: min in the truth order 0 < 1/2 < 1.
inline Kleene kAnd(Kleene A, Kleene B) {
  if (A == Kleene::False || B == Kleene::False)
    return Kleene::False;
  if (A == Kleene::True && B == Kleene::True)
    return Kleene::True;
  return Kleene::Half;
}

/// Kleene disjunction: max in the truth order.
inline Kleene kOr(Kleene A, Kleene B) {
  if (A == Kleene::True || B == Kleene::True)
    return Kleene::True;
  if (A == Kleene::False && B == Kleene::False)
    return Kleene::False;
  return Kleene::Half;
}

/// Join in the information order: x |_| x = x, otherwise 1/2.
inline Kleene kJoin(Kleene A, Kleene B) { return A == B ? A : Kleene::Half; }

inline char kleeneChar(Kleene A) {
  switch (A) {
  case Kleene::False:
    return '0';
  case Kleene::True:
    return '1';
  case Kleene::Half:
    return '?';
  }
  return '?';
}

} // namespace canvas

#endif // CANVAS_LOGIC_KLEENE_H
