// A minimal command-line flag parser for the CLI tools (no external
// dependencies): --name=value, --name value, and boolean --name forms.

#ifndef HYPERTREE_UTIL_FLAGS_H_
#define HYPERTREE_UTIL_FLAGS_H_

#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hypertree {

/// Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parses argv; flags start with "--". "--x=1" and bare "--x" (value
  /// "true") are accepted; values always attach with '='. Everything else
  /// is positional, so boolean flags can precede positional arguments
  /// without ambiguity.
  static Flags Parse(int argc, char** argv);

  /// True if the flag was present.
  bool Has(const std::string& name) const;

  /// String value (or `def` when absent).
  std::string GetString(const std::string& name,
                        const std::string& def = "") const;

  /// Integer value (or `def` when absent/unparsable).
  long GetInt(const std::string& name, long def = 0) const;

  /// Double value (or `def` when absent/unparsable).
  double GetDouble(const std::string& name, double def = 0.0) const;

  /// Boolean value: present without value, "1", "true", "yes" are true.
  bool GetBool(const std::string& name, bool def = false) const;

  /// True when every parsed flag name is in `known`. Otherwise prints
  /// "error: unknown flag --NAME" to stderr for each other name and
  /// returns false, so a misspelled or retired flag is never ignored.
  bool CheckKnown(std::initializer_list<std::string_view> known) const;

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hypertree

#endif  // HYPERTREE_UTIL_FLAGS_H_
