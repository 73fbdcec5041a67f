#include "Trace.h"

#include <cstdio>

using namespace perfbench;

int Tracer::begin(std::string Name, std::string Cat, int Client) {
  Span S;
  S.Name = std::move(Name);
  S.Cat = std::move(Cat);
  S.Client = Client;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartUs = now();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Tracer::end(int Id) {
  Spans[Id].EndUs = now();
  // Spans close in LIFO order; tolerate a span closed out of order by
  // dropping it (and anything opened after it) from the open stack.
  for (size_t I = Open.size(); I-- > 0;)
    if (Open[I] == Id) {
      Open.resize(I);
      break;
    }
}

int Tracer::add(Span S) {
  Spans.push_back(std::move(S));
  return static_cast<int>(Spans.size()) - 1;
}

double Tracer::now() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

std::string perfbench::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += C;
    }
  }
  return Out + "\"";
}

void perfbench::writeChromeTrace(std::ostream &OS,
                                 const std::vector<Span> &Spans) {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char Num[64];
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    OS << (I ? ",\n" : "\n") << "{\"name\":" << jsonString(S.Name)
       << ",\"cat\":" << jsonString(S.Cat) << ",\"ph\":\"X\"";
    std::snprintf(Num, sizeof(Num), ",\"ts\":%.3f,\"dur\":%.3f", S.StartUs,
                  S.micros());
    OS << Num << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << I
       << ",\"parent\":" << S.Parent << ",\"client\":" << S.Client << "}}";
  }
  OS << "\n]}\n";
}
