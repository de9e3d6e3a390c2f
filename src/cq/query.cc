#include "cq/query.h"

#include <cctype>
#include <map>

#include "util/check.h"
#include "util/stringutil.h"

namespace hypertree {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Parses "name(v1, v2, ...)" starting at *i; advances *i past it.
bool ParseAtom(const std::string& s, size_t* i, Atom* atom,
               std::string* error) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i])))
    ++*i;
  size_t start = *i;
  while (*i < s.size() && IsIdentChar(s[*i])) ++*i;
  atom->relation = s.substr(start, *i - start);
  if (atom->relation.empty()) {
    SetError(error, "expected predicate name at offset " + std::to_string(*i));
    return false;
  }
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i])))
    ++*i;
  if (*i >= s.size() || s[*i] != '(') {
    SetError(error, "expected '(' after " + atom->relation);
    return false;
  }
  ++*i;
  atom->vars.clear();
  while (true) {
    while (*i < s.size() &&
           (std::isspace(static_cast<unsigned char>(s[*i])) || s[*i] == ','))
      ++*i;
    if (*i < s.size() && s[*i] == ')') {
      ++*i;
      return true;
    }
    size_t vstart = *i;
    while (*i < s.size() && IsIdentChar(s[*i])) ++*i;
    if (*i == vstart) {
      SetError(error, "expected variable in " + atom->relation);
      return false;
    }
    atom->vars.push_back(s.substr(vstart, *i - vstart));
  }
}

}  // namespace

std::vector<std::string> ConjunctiveQuery::Variables() const {
  std::vector<std::string> out;
  std::map<std::string, bool> seen;
  auto add = [&](const std::string& v) {
    if (!seen[v]) {
      seen[v] = true;
      out.push_back(v);
    }
  };
  for (const std::string& v : head) add(v);
  for (const Atom& a : atoms) {
    for (const std::string& v : a.vars) add(v);
  }
  return out;
}

Hypergraph ConjunctiveQuery::QueryHypergraph() const {
  std::vector<std::string> vars = Variables();
  std::map<std::string, int> id;
  for (size_t i = 0; i < vars.size(); ++i) id[vars[i]] = static_cast<int>(i);
  Hypergraph h(static_cast<int>(vars.size()));
  for (size_t i = 0; i < vars.size(); ++i)
    h.SetVertexName(static_cast<int>(i), vars[i]);
  for (size_t a = 0; a < atoms.size(); ++a) {
    std::vector<int> scope;
    for (const std::string& v : atoms[a].vars) scope.push_back(id[v]);
    h.AddEdge(scope, atoms[a].relation + "#" + std::to_string(a));
  }
  h.set_name("query");
  return h;
}

std::optional<ConjunctiveQuery> ParseConjunctiveQuery(const std::string& text,
                                                      std::string* error) {
  ConjunctiveQuery q;
  size_t i = 0;
  Atom head;
  if (!ParseAtom(text, &i, &head, error)) return std::nullopt;
  q.head = head.vars;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])))
    ++i;
  if (i + 1 >= text.size() || text[i] != ':' || text[i + 1] != '-') {
    SetError(error, "expected ':-' after the head");
    return std::nullopt;
  }
  i += 2;
  while (true) {
    Atom atom;
    if (!ParseAtom(text, &i, &atom, error)) return std::nullopt;
    // A body atom is a hyperedge of the query hypergraph, which must not
    // be empty (a Boolean head, `ans()`, is fine).
    if (atom.vars.empty()) {
      SetError(error, "body atom " + atom.relation + " has no variables");
      return std::nullopt;
    }
    q.atoms.push_back(std::move(atom));
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == ','))
      ++i;
    if (i >= text.size() || text[i] == '.') break;
  }
  if (q.atoms.empty()) {
    SetError(error, "query has no body atoms");
    return std::nullopt;
  }
  // Safety: every head variable must occur in the body.
  for (const std::string& v : q.head) {
    bool found = false;
    for (const Atom& a : q.atoms) {
      for (const std::string& u : a.vars) {
        if (u == v) found = true;
      }
    }
    if (!found) {
      SetError(error, "head variable " + v + " not bound in the body");
      return std::nullopt;
    }
  }
  return q;
}

}  // namespace hypertree
