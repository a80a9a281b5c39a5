#ifndef AMS_ROUTE_PLACEMENT_H_
#define AMS_ROUTE_PLACEMENT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace ams::route {

/// The routing identity of one request: what placement policies hash.
struct RouteKey {
  /// Tenant owning the request. Part of the hash, so two tenants sending
  /// the same item ids spread independently.
  int tenant_id = 0;
  /// Stored item id, or the router's live-request counter for live scenes.
  uint64_t key = 0;
};

/// Read-only load view handed to Placement::ShardFor: shard count plus each
/// shard's admission-queue depth gauge (a lock-free read of
/// serve::AdmissionQueue::size() — a recent value, not a serialized one).
class ShardLoadView {
 public:
  virtual ~ShardLoadView() = default;
  virtual int num_shards() const = 0;
  virtual size_t QueueDepth(int shard) const = 0;
};

/// Pluggable placement seam: which shard serves a request. Implementations
/// must be thread-safe — every enqueuer calls ShardFor concurrently.
class Placement {
 public:
  virtual ~Placement() = default;
  /// The shard for `key`, in [0, load.num_shards()).
  virtual int ShardFor(const RouteKey& key, const ShardLoadView& load) = 0;
  virtual const char* name() const = 0;
};

/// Consistent hashing on (tenant, key) over a ring of virtual nodes: the
/// same key always lands on the same shard for a given shard count (a pure
/// function of the count — stable across router restarts and processes),
/// and when the shard count changes only ~1/N of keys move, instead of
/// nearly all of them under modulo hashing. The default placement: it keeps
/// any shard-local state of a stored item on one shard without
/// coordination.
class ConsistentHashPlacement final : public Placement {
 public:
  int ShardFor(const RouteKey& key, const ShardLoadView& load) override;
  const char* name() const override { return "hash"; }

 private:
  static constexpr int kVirtualNodesPerShard = 64;

  struct RingPoint {
    uint64_t hash;
    int shard;
  };

  /// The ring for the current shard count, rebuilt lazily when the count
  /// changes (which for a fixed router is never after the first call). The
  /// mutex guards the rebuild-or-lookup; the critical section is one binary
  /// search over 64*N points.
  mutable std::mutex mu_;
  std::vector<RingPoint> ring_;
  int ring_shards_ = 0;
};

/// Least-queued: the shard with the shallowest admission queue (ties: the
/// lowest index). A full scan per request — exact, but every enqueuer reads
/// every depth gauge; prefer p2c beyond a handful of shards.
class LeastQueuedPlacement final : public Placement {
 public:
  int ShardFor(const RouteKey& key, const ShardLoadView& load) override;
  const char* name() const override { return "least"; }
};

/// Power-of-two-choices: sample two distinct shards (seeded counter hash,
/// deterministic for a given seed and call ordinal) and take the less
/// loaded (ties: the lower index). The classic load-balancing result:
/// two random choices already collapse the maximum load to
/// O(log log n / log 2), at two gauge reads per request instead of N.
class PowerOfTwoChoicesPlacement final : public Placement {
 public:
  explicit PowerOfTwoChoicesPlacement(uint64_t seed = 0x9e3779b97f4a7c15ull);

  int ShardFor(const RouteKey& key, const ShardLoadView& load) override;
  const char* name() const override { return "p2c"; }

 private:
  const uint64_t seed_;
  std::atomic<uint64_t> counter_{0};
};

/// Builds the placement named "hash" / "least" / "p2c" (`seed` feeds p2c
/// only); nullptr on anything else.
std::unique_ptr<Placement> PlacementFromName(const char* name,
                                             uint64_t seed = 0);

}  // namespace ams::route

#endif  // AMS_ROUTE_PLACEMENT_H_
