#include "incr/data/value.h"

namespace incr {

Value Dictionary::Intern(std::string_view s) {
  auto it = codes_.find(std::string(s));
  if (it != codes_.end()) return it->second;
  Value code = static_cast<Value>(strings_.size());
  strings_.emplace_back(s);
  codes_.emplace(strings_.back(), code);
  return code;
}

const std::string* Dictionary::Lookup(Value code) const {
  if (code < 0 || static_cast<size_t>(code) >= strings_.size()) return nullptr;
  return &strings_[static_cast<size_t>(code)];
}

void AppendToken(std::string& out, Value v, const Dictionary& dict) {
  if (v >= kStringCodeBase) {
    const std::string* s = dict.Lookup(v - kStringCodeBase);
    if (s != nullptr) {
      out += *s;
      return;
    }
  }
  AppendInt(out, v);
}

}  // namespace incr
