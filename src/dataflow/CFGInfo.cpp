#include "dataflow/Dataflow.h"

using namespace canvas;
using namespace canvas::dataflow;

CFGInfo::CFGInfo(const cj::CFGMethod &Method) : M(&Method) {
  Succ.resize(Method.NumNodes);
  Pred.resize(Method.NumNodes);
  for (size_t E = 0; E != Method.Edges.size(); ++E) {
    Succ[Method.Edges[E].From].push_back(static_cast<int>(E));
    Pred[Method.Edges[E].To].push_back(static_cast<int>(E));
  }

  // Iterative post-order DFS from the entry; RPO = reversal.
  RPONumber.assign(Method.NumNodes, -1);
  if (Method.NumNodes == 0)
    return;
  std::vector<int> PostOrder;
  std::vector<char> Color(Method.NumNodes, 0); // 0 white, 1 gray, 2 black
  // Stack of (node, next successor-edge position).
  std::vector<std::pair<int, size_t>> Stack;
  Stack.emplace_back(Method.Entry, 0);
  Color[Method.Entry] = 1;
  while (!Stack.empty()) {
    auto &[N, Pos] = Stack.back();
    if (Pos < Succ[N].size()) {
      int Next = Method.Edges[Succ[N][Pos]].To;
      ++Pos;
      if (Color[Next] == 0) {
        Color[Next] = 1;
        Stack.emplace_back(Next, 0);
      }
    } else {
      Color[N] = 2;
      PostOrder.push_back(N);
      Stack.pop_back();
    }
  }
  NumReachable = static_cast<unsigned>(PostOrder.size());
  for (size_t I = 0; I != PostOrder.size(); ++I)
    RPONumber[PostOrder[PostOrder.size() - 1 - I]] = static_cast<int>(I);
}
