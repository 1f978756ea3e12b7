#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.h"
#include "util/sim_time.h"

/// \file message.h
/// The multimedia message of the paper's Fig. 3.2: payload metadata (size,
/// quality, priority, timestamps) plus keyword annotations with per-annotator
/// provenance, the hop path, and en-route ratings. A MessageId plays the role
/// of the paper's UUID: buffers reject duplicate ids, and copies of the same
/// message on different nodes share the id.
///
/// Internally a Message splits into a shared immutable core (identity,
/// payload metadata, ground truth — identical for every copy of the same
/// message) held behind a shared_ptr, and cheap per-copy state (annotations,
/// hop path, ratings, properties). Relaying or evicting a copy therefore
/// never deep-copies the mime/format strings or the truth vector; the rare
/// post-construction core setters copy-on-write.

namespace dtnic::msg {

using util::KeywordId;
using util::MessageId;
using util::NodeId;
using util::SimTime;

/// Source-assigned priority; 1 is highest (paper Table 3.1: P_s in 1..3).
enum class Priority : int { kHigh = 1, kMedium = 2, kLow = 3 };

[[nodiscard]] constexpr int priority_level(Priority p) { return static_cast<int>(p); }
[[nodiscard]] const char* priority_name(Priority p);

/// Where the multimedia content was captured (Fig. 3.2 stores latitude and
/// longitude as key-value attributes).
struct GeoTag {
  double latitude = 0.0;
  double longitude = 0.0;
  friend bool operator==(GeoTag, GeoTag) = default;
};

/// One keyword tag on a message, with provenance. `truthful` is simulation
/// ground truth — whether the tag actually describes the content — standing
/// in for the human judgement the paper's DRM asks of users (see DESIGN.md
/// substitution table). Protocol code must never branch on it; only the
/// rating step (the simulated user) reads it.
struct Annotation {
  KeywordId keyword;
  NodeId annotator;
  bool truthful = true;

  friend bool operator==(const Annotation&, const Annotation&) = default;
};

/// A hop the message copy has traversed (source is hop 0).
struct HopRecord {
  NodeId node;
  SimTime received_at;
};

/// A rating assigned by one path node to an earlier path node, carried with
/// the copy so the destination can apply the DRM award formula (paper §3.3:
/// "the delivering device also sends the destination the ratings for the
/// message from all the hops in the path").
struct PathRating {
  NodeId rater;
  NodeId rated;
  double rating = 0.0;  ///< 0..5 scale (Fig. 5.4)
};

class Message {
 public:
  Message() = default;
  Message(MessageId id, NodeId source, SimTime created_at, std::uint64_t size_bytes,
          Priority priority, double quality);

  [[nodiscard]] MessageId id() const { return core().id; }
  [[nodiscard]] NodeId source() const { return core().source; }
  [[nodiscard]] SimTime created_at() const { return core().created_at; }
  [[nodiscard]] std::uint64_t size_bytes() const { return core().size_bytes; }
  [[nodiscard]] Priority priority() const { return core().priority; }
  /// Content quality in [0,1] (paper's Q, normalized by Q_m at use sites).
  [[nodiscard]] double quality() const { return core().quality; }

  /// Time-to-live; infinite by default. A message has expired once
  /// now > created_at + ttl.
  void set_ttl(SimTime ttl) { ttl_ = ttl; }
  [[nodiscard]] SimTime ttl() const { return ttl_; }
  [[nodiscard]] bool expired(SimTime now) const;

  /// --- annotations -------------------------------------------------------
  /// Add a tag; duplicates of (keyword) are ignored so enrichment cannot
  /// inflate the tag set with repeats. Returns true if added.
  bool annotate(Annotation a);
  [[nodiscard]] const std::vector<Annotation>& annotations() const { return annotations_; }
  [[nodiscard]] bool has_keyword(KeywordId k) const;
  /// All distinct keywords currently tagged on the message, in annotation
  /// order. Maintained incrementally by annotate(); never materialized per
  /// query, so strength computations can iterate it allocation-free.
  [[nodiscard]] const std::vector<KeywordId>& keywords() const { return keywords_; }
  /// Tags added by a specific node (enrichment attribution).
  [[nodiscard]] std::vector<Annotation> annotations_by(NodeId node) const;
  /// Latent true content keywords (ground truth for the rating simulation).
  void set_true_keywords(std::vector<KeywordId> truth);
  [[nodiscard]] const std::vector<KeywordId>& true_keywords() const {
    return core().true_keywords;
  }
  [[nodiscard]] bool keyword_is_truthful(KeywordId k) const;

  /// --- path & ratings ----------------------------------------------------
  void record_hop(NodeId node, SimTime at) { path_.push_back({node, at}); }
  [[nodiscard]] const std::vector<HopRecord>& path() const { return path_; }
  /// Hops excluding the source; 0 for a message still at its source.
  [[nodiscard]] std::size_t relay_hop_count() const;
  [[nodiscard]] bool visited(NodeId node) const;

  void add_path_rating(PathRating r) { path_ratings_.push_back(r); }
  [[nodiscard]] const std::vector<PathRating>& path_ratings() const { return path_ratings_; }

  /// --- multimedia metadata (Fig. 3.2) -------------------------------------
  void set_mime_type(std::string mime) { mutable_core().mime_type = std::move(mime); }
  [[nodiscard]] const std::string& mime_type() const { return core().mime_type; }
  void set_format(std::string format) { mutable_core().format = std::move(format); }
  [[nodiscard]] const std::string& format() const { return core().format; }
  void set_location(GeoTag location) { mutable_core().location = location; }
  [[nodiscard]] const std::optional<GeoTag>& location() const { return core().location; }

  /// --- properties --------------------------------------------------------
  /// Small per-copy key/value store for router metadata (ONE-simulator style
  /// message properties; e.g. Spray-and-Wait's remaining copy count).
  void set_property(const std::string& key, double value);
  [[nodiscard]] double property_or(const std::string& key, double dflt) const;

 private:
  /// Copy-invariant message state: every copy of a message shares one Core.
  struct Core {
    MessageId id;
    NodeId source;
    SimTime created_at;
    std::uint64_t size_bytes = 0;
    Priority priority = Priority::kMedium;
    double quality = 1.0;
    std::vector<KeywordId> true_keywords;
    std::string mime_type = "image/jpeg";  ///< Fig. 3.2 default payload kind
    std::string format = "jpeg";
    std::optional<GeoTag> location;
  };

  [[nodiscard]] const Core& core() const;
  /// Copy-on-write: clones the core when other copies still reference it.
  [[nodiscard]] Core& mutable_core();

  std::shared_ptr<const Core> core_;
  SimTime ttl_ = SimTime::infinity();
  std::vector<Annotation> annotations_;
  std::vector<KeywordId> keywords_;
  std::vector<HopRecord> path_;
  std::vector<PathRating> path_ratings_;
  std::vector<std::pair<std::string, double>> properties_;
};

}  // namespace dtnic::msg
