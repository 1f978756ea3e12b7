#include "msg/message.h"

#include <algorithm>

#include "util/arena.h"
#include "util/assert.h"

namespace dtnic::msg {

const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh: return "high";
    case Priority::kMedium: return "medium";
    case Priority::kLow: return "low";
  }
  return "?";
}

const Message::Core& Message::core() const {
  if (core_) return *core_;
  static const Core kDefault{};
  return kDefault;
}

Message::Core& Message::mutable_core() {
  // Cores are the highest-churn heap objects in a run (every COW mutation
  // and every origination makes one); allocate_shared through the arena pool
  // puts object + control block in one recycled block.
  if (!core_) {
    core_ = std::allocate_shared<Core>(util::arena::PoolAllocator<Core>{});
  } else if (core_.use_count() > 1) {
    core_ = std::allocate_shared<Core>(util::arena::PoolAllocator<Core>{},
                                       *core_);  // copy-on-write
  }
  // The only live reference is ours; shedding const is safe.
  return const_cast<Core&>(*core_);
}

Message::Message(MessageId id, NodeId source, SimTime created_at, std::uint64_t size_bytes,
                 Priority priority, double quality) {
  DTNIC_REQUIRE_MSG(id.valid(), "message id must be valid");
  DTNIC_REQUIRE_MSG(source.valid(), "message source must be valid");
  DTNIC_REQUIRE_MSG(size_bytes > 0, "message size must be positive");
  DTNIC_REQUIRE_MSG(quality >= 0.0 && quality <= 1.0, "quality must be in [0,1]");
  auto core = std::allocate_shared<Core>(util::arena::PoolAllocator<Core>{});
  core->id = id;
  core->source = source;
  core->created_at = created_at;
  core->size_bytes = size_bytes;
  core->priority = priority;
  core->quality = quality;
  core_ = std::move(core);
  path_.push_back({source, created_at});
}

bool Message::expired(SimTime now) const {
  if (!ttl_.finite()) return false;
  return now > created_at() + ttl_;
}

bool Message::annotate(Annotation a) {
  DTNIC_REQUIRE(a.keyword.valid());
  if (has_keyword(a.keyword)) return false;
  annotations_.push_back(a);
  keywords_.push_back(a.keyword);
  return true;
}

bool Message::has_keyword(KeywordId k) const {
  return std::find(keywords_.begin(), keywords_.end(), k) != keywords_.end();
}

std::vector<Annotation> Message::annotations_by(NodeId node) const {
  std::vector<Annotation> out;
  for (const Annotation& a : annotations_) {
    if (a.annotator == node) out.push_back(a);
  }
  return out;
}

void Message::set_true_keywords(std::vector<KeywordId> truth) {
  mutable_core().true_keywords = std::move(truth);
}

bool Message::keyword_is_truthful(KeywordId k) const {
  const std::vector<KeywordId>& truth = core().true_keywords;
  return std::find(truth.begin(), truth.end(), k) != truth.end();
}

std::size_t Message::relay_hop_count() const {
  DTNIC_ASSERT(!path_.empty());
  return path_.size() - 1;
}

void Message::set_property(const std::string& key, double value) {
  for (auto& [k, v] : properties_) {
    if (k == key) {
      v = value;
      return;
    }
  }
  properties_.emplace_back(key, value);
}

double Message::property_or(const std::string& key, double dflt) const {
  for (const auto& [k, v] : properties_) {
    if (k == key) return v;
  }
  return dflt;
}

bool Message::visited(NodeId node) const {
  return std::any_of(path_.begin(), path_.end(),
                     [node](const HopRecord& h) { return h.node == node; });
}

}  // namespace dtnic::msg
