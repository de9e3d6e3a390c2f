#include "cq/query.h"

#include <cctype>
#include <map>
#include <set>

#include "util/check.h"
#include "util/stringutil.h"

namespace hypertree {

namespace {

void SetError(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
}

void SkipSpace(const std::string& s, size_t* i) {
  while (*i < s.size() && std::isspace(static_cast<unsigned char>(s[*i])))
    ++*i;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Parses "name(v1, v2, ...)" starting at *i; advances *i past it.
bool ParseAtom(const std::string& s, size_t* i, Atom* atom,
               std::string* error) {
  SkipSpace(s, i);
  size_t start = *i;
  while (*i < s.size() && IsIdentChar(s[*i])) ++*i;
  atom->relation = s.substr(start, *i - start);
  if (atom->relation.empty()) {
    SetError(error, "expected predicate name at offset " + std::to_string(*i));
    return false;
  }
  SkipSpace(s, i);
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

bool ValidateConjunctiveQuery(const ConjunctiveQuery& q, std::string* error) {
  if (q.atoms.empty()) {
    SetError(error, "query has no body atoms");
    return false;
  }
  std::set<std::string> body_vars;
  for (const Atom& atom : q.atoms) {
    if (atom.vars.empty()) {
      SetError(error, "body atom " + atom.relation + " has no variables");
      return false;
    }
    body_vars.insert(atom.vars.begin(), atom.vars.end());
  }
  for (const std::string& v : q.head) {
    if (body_vars.count(v) == 0) {
      SetError(error, "head variable " + v + " not bound in the body");
      return false;
    }
  }
  return true;
}

std::optional<ConjunctiveQuery> ParseConjunctiveQuery(const std::string& text,
                                                      std::string* error) {
  ConjunctiveQuery q;
  size_t i = 0;
  Atom head;
  if (!ParseAtom(text, &i, &head, error)) return std::nullopt;
  q.head = head.vars;
  SkipSpace(text, &i);
  if (i + 1 >= text.size() || text[i] != ':' || text[i + 1] != '-') {
    SetError(error, "expected ':-' after the head");
    return std::nullopt;
  }
  i += 2;
  while (true) {
    Atom atom;
    if (!ParseAtom(text, &i, &atom, error)) return std::nullopt;
    q.atoms.push_back(std::move(atom));
    while (i < text.size() &&
           (std::isspace(static_cast<unsigned char>(text[i])) ||
            text[i] == ','))
      ++i;
    if (i >= text.size() || text[i] == '.') break;
  }
  if (i < text.size()) ++i;  // the closing '.'
  SkipSpace(text, &i);
  if (i < text.size()) {
    SetError(error, "unexpected text after '.' at offset " + std::to_string(i));
    return std::nullopt;
  }
  if (!ValidateConjunctiveQuery(q, error)) return std::nullopt;
  return q;
}

}  // namespace hypertree
