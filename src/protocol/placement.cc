#include "protocol/placement.h"

#include <algorithm>

#include "util/random.h"

namespace dcp::protocol {

namespace {

/// splitmix64 finalizer: the standard bit mixer for hash-derived weights.
uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

}  // namespace

ObjectTable::ObjectTable(PlacementOptions options) : options_(options) {
  // Stream root: the placement universe is seeded from the deployment's
  // placement seed, independent of any cluster RNG.  // dcp-lint: allow(raw-rng)
  Rng root(options_.seed);
  salt_ = root.Next64();
  pool_ = NodeSet::Universe(options_.num_nodes);
  placements_.resize(options_.num_objects);

  const uint32_t want = std::max(1u, options_.replication_factor);
  std::vector<std::pair<uint64_t, NodeId>> scored;
  for (uint32_t object = 0; object < options_.num_objects; ++object) {
    scored.clear();
    for (NodeId node : pool_) scored.emplace_back(Score(object, node), node);
    // Highest score first; ties (astronomically unlikely) break toward the
    // smaller node id so the order stays total and deterministic.
    std::sort(scored.begin(), scored.end(),
              [](const auto& a, const auto& b) {
                if (a.first != b.first) return a.first > b.first;
                return a.second < b.second;
              });
    const uint32_t take =
        std::min<uint32_t>(want, static_cast<uint32_t>(scored.size()));
    ObjectPlacement& p = placements_[object];
    for (uint32_t i = 0; i < take; ++i) {
      p.ranking.push_back(scored[i].second);
      p.replicas.Insert(scored[i].second);
    }
  }
}

uint64_t ObjectTable::Score(storage::ObjectId object, NodeId node) const {
  return Mix(salt_ ^ (0x9E3779B97F4A7C15ull * (uint64_t{object} + 1)) ^
             (0xD1B54A32D192ED03ull * (uint64_t{node} + 1)));
}

std::map<NodeId, uint32_t> ObjectTable::ReplicaLoad() const {
  std::map<NodeId, uint32_t> load;
  for (NodeId node : pool_) load[node] = 0;
  for (const ObjectPlacement& p : placements_)
    for (NodeId node : p.replicas) ++load[node];
  return load;
}

uint64_t ObjectTable::Fingerprint() const {
  // FNV-1a over a canonical serialization: pool, then each object's
  // ranking in object order.
  uint64_t h = 0xCBF29CE484222325ull;
  auto fold = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  };
  for (NodeId node : pool_) fold(node);
  for (uint32_t object = 0; object < options_.num_objects; ++object) {
    fold(object);
    for (NodeId node : placements_[object].ranking) fold(node);
  }
  return h;
}

Catalog BuildCatalog(const NodeSet& pool, uint32_t num_objects,
                     const ObjectTable* table) {
  Catalog catalog;
  for (storage::ObjectId o = 0; o < num_objects; ++o) {
    ObjectHome home = table ? ObjectHome{o, table->placement(o).replicas}
                            : ObjectHome{std::nullopt, pool};
    catalog.emplace_hint(catalog.end(), o, std::move(home));
  }
  return catalog;
}

}  // namespace dcp::protocol
