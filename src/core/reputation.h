#pragma once

#include <unordered_map>
#include <vector>

#include "msg/message.h"
#include "util/ids.h"
#include "util/rng.h"

/// \file reputation.h
/// The Distributed Reputation Model (DRM, §3.3). Each node keeps its own
/// view of every other node's rating on a 0..5 scale, built from
///  * first-hand message ratings: the node rating is the mean of the ratings
///    of messages received from that node (case 1), and
///  * second-hand exchange: r ← (1−α)·r_remote + α·r_own (case 2, α > 0.5).
/// The "user judgement" the paper requires is simulated by comparing message
/// annotations against the latent truth with configurable confidence and
/// noise (DESIGN.md substitution table).

namespace dtnic::core {

using util::NodeId;

struct DrmParams {
  bool enabled = true;
  /// Weight of own opinion in the second-hand merge and the award formula
  /// (paper requires α > 0.5).
  double alpha = 0.6;
  double rating_max = 5.0;     ///< r_m: rating scale ceiling (Fig. 5.4 uses 5)
  double default_rating = 3.5; ///< prior for nodes never rated or heard about
  /// A sender whose rating falls below this is refused transfers ("avoid
  /// receiving from malicious nodes", §1.3.3).
  double trust_threshold = 2.0;
  double confidence = 0.9;       ///< C/C_m the simulated user puts on tag ratings
  double rating_noise_sd = 0.25; ///< stddev of judgement noise on each rating
};

/// A node's local reputation table.
class RatingStore {
 public:
  explicit RatingStore(const DrmParams& params) : params_(params) {}

  /// First-hand: record the rating of a message received from \p rated.
  /// The node rating becomes the mean of all first-hand message ratings
  /// (paper case 1).
  void add_message_rating(NodeId rated, double rating);

  /// Second-hand: merge a remote opinion (paper case 2). A node with no
  /// prior opinion adopts the remote value.
  void merge_remote(NodeId rated, double remote_rating);

  /// Current rating; default_rating when nothing is known.
  [[nodiscard]] double rating_of(NodeId node) const;
  [[nodiscard]] bool knows(NodeId node) const { return records_.count(node) > 0; }
  /// Sender trust gate for admission control.
  [[nodiscard]] bool trusted(NodeId node) const;

  /// Snapshot for the link-up reputation exchange, sorted by node id.
  [[nodiscard]] std::vector<std::pair<NodeId, double>> snapshot() const;

  /// Visit every known (node, current rating) pair without allocating.
  /// Iteration order is the hash map's — use only for order-independent
  /// operations (the link-up second-hand merge touches each node
  /// independently, so it qualifies).
  template <class Visitor>
  void for_each(Visitor&& visit) const {
    for (const auto& [node, rec] : records_) visit(node, rec.value);
  }

  [[nodiscard]] const DrmParams& params() const { return params_; }

 private:
  struct Record {
    double first_hand_sum = 0.0;
    std::size_t first_hand_count = 0;
    double value = 0.0;  ///< current effective rating
  };

  DrmParams params_;
  std::unordered_map<NodeId, Record> records_;
};

/// The simulated user's post-reception judgement of a message (§3.3 and
/// operator function 9). Ratings are on [0, rating_max].
struct MessageJudgement {
  /// Rate the message source: R_i = ½·(R_t·C/C_m) + ½·R_q, where R_t scores
  /// the truthfulness of the source's tags and R_q the content quality.
  [[nodiscard]] static double rate_source(const msg::Message& m, const DrmParams& drm,
                                          util::Rng& rng);

  /// Rate an enriching relay: R_i = R_t·C/C_m over the tags \p annotator
  /// added. Returns default_rating if the annotator added no tags.
  [[nodiscard]] static double rate_annotator(const msg::Message& m, NodeId annotator,
                                             const DrmParams& drm, util::Rng& rng);

  /// Fraction of \p annotator's tags on \p m that are truthful; 1.0 when the
  /// annotator added no tags.
  [[nodiscard]] static double truthful_fraction(const msg::Message& m, NodeId annotator);
};

/// Reputation scaling of the delivery award (§3.3):
///   I_v = ((1−α)·Σr_paths/(N·r_m) + α·r_deliverer/r_m) · (I + I_t)
/// This returns the dimensionless factor in [0, 1]; with no path ratings the
/// deliverer's own rating carries the full weight.
[[nodiscard]] double award_factor(const DrmParams& drm,
                                  const std::vector<msg::PathRating>& path_ratings,
                                  double deliverer_rating);

}  // namespace dtnic::core
