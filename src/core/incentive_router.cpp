#include "core/incentive_router.h"

#include <algorithm>

#include "util/assert.h"

namespace dtnic::core {

using routing::AcceptDecision;
using routing::ForwardPlan;
using routing::Host;
using routing::TransferRole;

IncentiveRouter::IncentiveRouter(const routing::DestinationOracle& oracle,
                                 const routing::chitchat::ChitChatParams& chitchat,
                                 util::SimTime contact_quantum, const IncentiveWorld* world,
                                 BehaviorProfile profile, util::Rng rng)
    : ChitChatRouter(oracle, chitchat, contact_quantum, routing::RouterKind::kIncentive),
      world_(world),
      profile_(profile),
      rng_(rng),
      ledger_(world != nullptr ? world->incentive.initial_tokens : 0.0),
      ratings_(world != nullptr ? world->drm : DrmParams{}),
      enricher_(world != nullptr ? world->keyword_pool : nullptr) {
  DTNIC_REQUIRE_MSG(world != nullptr, "IncentiveRouter needs a shared IncentiveWorld");
}

IncentiveRouter* IncentiveRouter::of(Host& host) {
  if (!host.has_router()) return nullptr;
  routing::Router& router = host.router();
  if (router.kind() != routing::RouterKind::kIncentive) return nullptr;
  return static_cast<IncentiveRouter*>(&router);
}

void IncentiveRouter::on_link_up(Host& self, Host& peer, util::SimTime now, double distance_m) {
  ChitChatRouter::on_link_up(self, peer, now, distance_m);
  contact_distance_[peer.id()] = distance_m;
  // Reputation exchange: absorb the peer's opinions second-hand (§3.3
  // case 2). Opinions about ourselves and about the peer itself are skipped
  // — self-praise must not enter the merge.
  if (world_->drm.enabled) {
    if (IncentiveRouter* other = IncentiveRouter::of(peer); other != nullptr) {
      // Per-node independent merge, so the peer's records are visited in hash
      // order directly instead of materializing a sorted snapshot per contact.
      other->ratings_.for_each([&](routing::NodeId node, double rating) {
        if (node == self.id() || node == peer.id()) return;
        ratings_.merge_remote(node, rating);
      });
    }
  }
}

void IncentiveRouter::on_link_down(Host& self, Host& peer, util::SimTime now) {
  ChitChatRouter::on_link_down(self, peer, now);
  contact_distance_.erase(peer.id());
}

void IncentiveRouter::fill_promise_context(Host& self, PromiseContext& ctx) const {
  ctx.neighbors.clear();
  ctx.max_size_bytes = 1;
  ctx.max_quality = 1e-9;
  if (world_->neighbors) world_->neighbors(self.id(), ctx.neighbors);
  // S_m / Q_m: maxima over the sender's carried messages (Table 3.1).
  self.buffer().for_each([&ctx](const msg::Message& carried) {
    ctx.max_size_bytes = std::max(ctx.max_size_bytes, carried.size_bytes());
    ctx.max_quality = std::max(ctx.max_quality, carried.quality());
  });
}

double IncentiveRouter::compute_promise(Host& self, const routing::Peer& peer,
                                        const msg::Message& m) {
  PromiseContext ctx;
  fill_promise_context(self, ctx);
  return promise_for(self, peer, m, ctx);
}

double IncentiveRouter::promise_for(Host& self, const routing::Peer& peer,
                                    const msg::Message& m, const PromiseContext& ctx) {
  SoftwareFactors f;
  f.sum_weights_v = peer.message_strength(m);
  // w_m: the best interest strength among all currently connected devices
  // (queried through the Peer interface — the same bits as a direct query).
  f.max_sum_weights = f.sum_weights_v;
  for (Host* neighbor : ctx.neighbors) {
    f.max_sum_weights = std::max(f.max_sum_weights, neighbor->message_strength(m));
  }
  f.rank_u = self.rank();
  f.rank_v = peer.rank();
  f.priority = m.priority();
  f.size_bytes = m.size_bytes();
  f.quality = m.quality();
  f.max_size_bytes = std::max(ctx.max_size_bytes, m.size_bytes());
  f.max_quality = std::max(ctx.max_quality, m.quality());

  const double i_s = software_incentive(world_->incentive, f);
  const double duration_s =
      static_cast<double>(m.size_bytes()) / world_->radio.bitrate_bps;
  const auto dist_it = contact_distance_.find(peer.id());
  const double distance = dist_it != contact_distance_.end() ? dist_it->second
                                                             : world_->radio.range_m;
  const double i_h = hardware_incentive(world_->incentive, world_->radio,
                                        /*sender_is_source=*/m.source() == self.id(), distance,
                                        util::SimTime::seconds(duration_s));
  return total_promise(world_->incentive, i_s, i_h);
}

void IncentiveRouter::plan_for_peer(Host& self, const routing::Peer& peer, util::SimTime now,
                                    std::vector<ForwardPlan>& out) {
  ChitChatRouter::plan_for_peer(self, peer, now, out);
  const bool peer_runs_chitchat = peer.interest_table() != nullptr;
  fill_promise_context(self, promise_ctx_);

  keyed_scratch_.clear();
  if (keyed_scratch_.capacity() < out.size()) {
    // Floored geometric growth: plan counts creep upward as transient
    // interests spread, and letting the vector grow by its own doubling
    // sprinkles small reallocations across many later contacts. One generous
    // jump keeps the steady-state contact tick allocation-free.
    keyed_scratch_.reserve(std::max<std::size_t>(32, 2 * out.size()));
  }
  for (ForwardPlan& p : out) {
    const msg::Message* m = self.buffer().find(p.message);
    DTNIC_ASSERT(m != nullptr);
    p.promise = promise_for(self, peer, *m, promise_ctx_);
    if (p.role == TransferRole::kRelay && peer_runs_chitchat) {
      // Relay threshold (Table 5.1): a receiver with a very high mean tag
      // weight — near-certain deliverer — pre-pays a fraction of the promise.
      // The mean is derived from the strength sum; both iterate the
      // same keyword list, so the quotient is bit-identical to mean_weight.
      const auto& kws = m->keywords();
      const double mean_w = kws.empty() ? 0.0
                                        : peer.message_strength(*m) /
                                              static_cast<double>(kws.size());
      if (mean_w > world_->incentive.relay_threshold) {
        p.prepay = world_->incentive.relay_prepay_fraction * p.promise;
      }
    }
    keyed_scratch_.push_back(KeyedPlan{p, msg::priority_level(m->priority()), m->quality(),
                                       static_cast<std::uint32_t>(keyed_scratch_.size())});
  }

  // Higher-priority, higher-quality messages go first (the behavior Fig. 5.6
  // measures). Destinations outrank relay handoffs at equal priority. Keys
  // were resolved above, so the comparator never touches the buffer. The
  // pre-sort position is the final tiebreak, which reproduces stable_sort's
  // order without its per-call temporary merge buffer.
  std::sort(keyed_scratch_.begin(), keyed_scratch_.end(),
            [](const KeyedPlan& a, const KeyedPlan& b) {
              if (a.priority != b.priority) return a.priority < b.priority;
              if (a.plan.role != b.plan.role) {
                return a.plan.role == TransferRole::kDestination;
              }
              if (a.quality != b.quality) return a.quality > b.quality;
              return a.seq < b.seq;
            });
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = keyed_scratch_[i].plan;
}

AcceptDecision IncentiveRouter::accept(Host& self, const routing::Peer& from,
                                       const msg::Message& m, const ForwardPlan& offer,
                                       util::SimTime now) {
  const AcceptDecision base = ChitChatRouter::accept(self, from, m, offer, now);
  if (base != AcceptDecision::kAccept) return base;

  // DRM gate: avoid receiving from nodes rated below the trust threshold.
  if (world_->drm.enabled && !ratings_.trusted(from.id())) {
    return AcceptDecision::kUntrustedSender;
  }

  // Storage admission: a copy the (priority-aware) buffer would refuse is
  // rejected before any bandwidth is spent on it.
  if (!self.buffer().would_admit(m)) return AcceptDecision::kRefused;

  if (offer.role == TransferRole::kDestination) {
    // A destination must be able to pay the promised incentive (Paper II
    // §3.3: a device with no incentive to offer cannot act as destination).
    if (!ledger_.can_pay(offer.promise)) return AcceptDecision::kNoTokens;
  } else if (offer.prepay > 0.0 && !ledger_.can_pay(offer.prepay)) {
    return AcceptDecision::kNoTokens;
  }
  return AcceptDecision::kAccept;
}

void IncentiveRouter::rate_and_record(Host& self, msg::Message& m) {
  if (!world_->drm.enabled) return;
  // Rate the source for tag relevance and content quality.
  const double r_src = MessageJudgement::rate_source(m, world_->drm, rng_);
  ratings_.add_message_rating(m.source(), r_src);
  m.add_path_rating(msg::PathRating{self.id(), m.source(), r_src});
  self.events().on_reputation_updated(self.id(), m.source(), ratings_.rating_of(m.source()));
  // Rate every enriching relay for the tags it added.
  std::vector<routing::NodeId> rated;
  for (const msg::Annotation& a : m.annotations()) {
    if (a.annotator == m.source() || a.annotator == self.id()) continue;
    if (std::find(rated.begin(), rated.end(), a.annotator) != rated.end()) continue;
    rated.push_back(a.annotator);
    const double r = MessageJudgement::rate_annotator(m, a.annotator, world_->drm, rng_);
    ratings_.add_message_rating(a.annotator, r);
    m.add_path_rating(msg::PathRating{self.id(), a.annotator, r});
    self.events().on_reputation_updated(self.id(), a.annotator,
                                        ratings_.rating_of(a.annotator));
  }
}

void IncentiveRouter::on_received(Host& self, Host& from, msg::Message m,
                                  const ForwardPlan& plan, util::SimTime now) {
  (void)now;
  self.mark_seen(m.id());
  IncentiveRouter* sender = IncentiveRouter::of(from);

  if (plan.role == TransferRole::kDestination) {
    // Enrichment reward: the destination compensates only tags that were
    // added en route AND match its own interests (§3.2).
    const auto& my_interests = oracle().interests_of(self.id());
    int relevant_added = 0;
    for (const msg::Annotation& a : m.annotations()) {
      if (a.annotator == m.source()) continue;
      if (my_interests.count(a.keyword) > 0) ++relevant_added;
    }
    const double i_t = tag_reward(world_->incentive, relevant_added);

    // Reputation-scaled award to the deliverer (first copy only — the seen
    // set refuses duplicates before they reach this point).
    const double factor = award_factor(world_->drm, m.path_ratings(),
                                       ratings_.rating_of(from.id()));
    const double award = factor * (plan.promise + i_t);
    if (sender != nullptr && award > 0.0) {
      const double paid = ledger_.pay(sender->ledger_, award);
      self.events().on_tokens_paid(self.id(), from.id(), paid);
    }
    rate_and_record(self, m);
    store(self, std::move(m), /*own=*/false);
    return;
  }

  // Relay path: honor the agreed pre-payment, judge the copy, enrich, store.
  if (plan.prepay > 0.0 && sender != nullptr) {
    const double paid = ledger_.pay(sender->ledger_, plan.prepay);
    self.events().on_tokens_paid(self.id(), from.id(), paid);
  }
  rate_and_record(self, m);
  if (world_->enrichment_enabled) {
    const int added = enricher_.enrich(m, self.id(), profile_, rng_);
    if (added > 0) self.events().on_enriched(self.id(), m, added);
  }
  store(self, std::move(m), /*own=*/false);
}

}  // namespace dtnic::core
