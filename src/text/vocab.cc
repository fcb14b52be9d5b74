#include "text/vocab.h"

#include <algorithm>
#include <fstream>

#include "common/logging.h"

namespace tabrep {

const std::vector<std::string>& SpecialTokens::All() {
  static const auto& kAll = *new std::vector<std::string>{
      std::string(kPad),  std::string(kUnk),  std::string(kCls),
      std::string(kSep),  std::string(kMask), std::string(kEmpty)};
  return kAll;
}

Vocab Vocab::NewWithSpecials() {
  Vocab v;
  for (const std::string& tok : SpecialTokens::All()) v.AddToken(tok);
  v.has_specials_ = true;
  return v;
}

int32_t Vocab::AddToken(std::string_view token) {
  const int32_t found = Find(token);
  if (found >= 0) return found;
  const int32_t id = static_cast<int32_t>(tokens_.size());
  tokens_.emplace_back(token);
  index_.emplace(tokens_.back(), id);
  max_token_size_ = std::max(max_token_size_, token.size());
  return id;
}

int32_t Vocab::Find(std::string_view token) const {
  auto it = index_.find(token);
  return it != index_.end() ? it->second : -1;
}

int32_t Vocab::Id(std::string_view token) const {
  const int32_t found = Find(token);
  if (found >= 0) return found;
  return has_specials_ ? SpecialTokens::kUnkId : -1;
}

bool Vocab::Contains(std::string_view token) const { return Find(token) >= 0; }

const std::string& Vocab::Token(int32_t id) const {
  TABREP_CHECK(id >= 0 && id < size()) << "Vocab::Token: id " << id;
  return tokens_[static_cast<size_t>(id)];
}

Status Vocab::Save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for write: " + path);
  for (const std::string& tok : tokens_) out << tok << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Result<Vocab> Vocab::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  Vocab v;
  std::string line;
  while (std::getline(in, line)) v.AddToken(line);
  // Detect the canonical specials layout.
  const auto& specials = SpecialTokens::All();
  if (v.size() >= static_cast<int32_t>(specials.size())) {
    bool ok = true;
    for (size_t i = 0; i < specials.size(); ++i) {
      if (v.tokens_[i] != specials[i]) {
        ok = false;
        break;
      }
    }
    v.has_specials_ = ok;
  }
  return v;
}

}  // namespace tabrep
