// Fixture: pointer-keyed ordered containers must be flagged.
#include <map>
#include <set>

struct Node {};

int CountOrdered(Node* a, Node* b) {
  std::map<Node*, int> order;  // expect-analyze: no-pointer-key
  std::set<const Node*> seen;  // expect-analyze: no-pointer-key
  order[a] = 1;
  order[b] = 2;
  seen.insert(a);
  return static_cast<int>(order.size() + seen.size());
}
