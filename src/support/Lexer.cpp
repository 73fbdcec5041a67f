#include "support/Lexer.h"

#include <array>
#include <cstdint>

using namespace canvas;

namespace {

/// Character classes of the C locale, one table lookup per byte.
enum : uint8_t {
  Space = 1,     ///< isspace: ' ', '\t', '\n', '\v', '\f', '\r'.
  IdStart = 2,   ///< isalpha, '_' and '$'.
  Digit = 4,     ///< isdigit.
  PunctChar = 8, ///< A one-character punctuation token.
  IdChar = IdStart | Digit,
};

constexpr std::array<uint8_t, 256> Classes = [] {
  std::array<uint8_t, 256> T{};
  for (unsigned char C : {' ', '\t', '\n', '\v', '\f', '\r'})
    T[C] = Space;
  for (int C = 'a'; C <= 'z'; ++C)
    T[C] = T[C - 'a' + 'A'] = IdStart;
  T['_'] = T['$'] = IdStart;
  for (int C = '0'; C <= '9'; ++C)
    T[C] = Digit;
  // The literal's terminator makes NUL one-character punctuation too.
  for (unsigned char C : "{}()[].,;=!<>*&|+-/%:?")
    T[C] = PunctChar;
  return T;
}();

uint8_t classOf(char C) { return Classes[static_cast<unsigned char>(C)]; }

class LexerImpl {
public:
  LexerImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Source(Source), Diags(Diags) {}

  std::vector<Token> run() {
    std::vector<Token> Tokens;
    // About one token per four source bytes in both languages.
    Tokens.reserve(Source.size() / 4 + 1);
    while (true) {
      skipTrivia();
      SourceLoc Loc{Line, Col};
      if (atEnd()) {
        Tokens.push_back({TokenKind::End, "", Loc});
        return Tokens;
      }
      const char C = Source[Pos];
      const uint8_t Class = classOf(C);
      if (Class & IdStart) {
        Tokens.push_back({TokenKind::Identifier, take(IdChar), Loc});
        continue;
      }
      if (Class & Digit) {
        Tokens.push_back({TokenKind::Number, take(Digit), Loc});
        continue;
      }
      if (C == '"') {
        Tokens.push_back({TokenKind::String, lexString(), Loc});
        continue;
      }
      std::string Punct = lexPunct();
      if (Punct.empty()) {
        Diags.error(Loc, std::string("unexpected character '") + C + "'");
        advance();
        continue;
      }
      Tokens.push_back({TokenKind::Punct, std::move(Punct), Loc});
    }
  }

private:
  bool atEnd() const { return Pos >= Source.size(); }
  char peek(size_t Ahead = 0) const {
    return Pos + Ahead < Source.size() ? Source[Pos + Ahead] : '\0';
  }

  void advance() {
    if (atEnd())
      return;
    if (Source[Pos] == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  /// The longest run of \p Mask-class bytes at Pos, which holds no
  /// newline, so the column advances by its length.
  std::string take(uint8_t Mask) {
    const size_t Start = Pos;
    while (Pos != Source.size() && (classOf(Source[Pos]) & Mask))
      ++Pos;
    Col += static_cast<unsigned>(Pos - Start);
    return std::string(Source.substr(Start, Pos - Start));
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (classOf(C) & Space) {
        advance();
        continue;
      }
      if (C == '/' && peek(1) == '/') {
        while (!atEnd() && peek() != '\n')
          advance();
        continue;
      }
      if (C == '/' && peek(1) == '*') {
        SourceLoc Start{Line, Col};
        advance();
        advance();
        while (!atEnd() && !(peek() == '*' && peek(1) == '/'))
          advance();
        if (atEnd()) {
          Diags.error(Start, "unterminated block comment");
          return;
        }
        advance();
        advance();
        continue;
      }
      return;
    }
  }

  std::string lexString() {
    SourceLoc Start{Line, Col};
    advance(); // opening quote
    const size_t Begin = Pos;
    while (!atEnd() && peek() != '"')
      advance();
    std::string Text(Source.substr(Begin, Pos - Begin));
    if (atEnd()) {
      Diags.error(Start, "unterminated string literal");
      return Text;
    }
    advance(); // closing quote
    return Text;
  }

  std::string lexPunct() {
    static const char *TwoChar[] = {"==", "!=", "&&", "||", "->"};
    for (const char *P : TwoChar) {
      if (peek() == P[0] && peek(1) == P[1]) {
        advance();
        advance();
        return P;
      }
    }
    if (!(classOf(peek()) & PunctChar))
      return "";
    std::string One(1, peek());
    advance();
    return One;
  }

  std::string_view Source;
  DiagnosticEngine &Diags;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

} // namespace

std::vector<Token> canvas::lexSource(std::string_view Source,
                                     DiagnosticEngine &Diags) {
  return LexerImpl(Source, Diags).run();
}
