// Name-keyed backend registries: topologies, transports, motifs.
//
// A ScenarioSpec references backends by name; these registries resolve
// the names to factories. Builtins self-register on first access (lazy
// registration from inside the library — static-initializer registration
// in a static library would be discarded by the linker), and tests or
// extensions can add entries at runtime. Entries carry one-line
// descriptions surfaced by `rvma_run --list`.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "motifs/api_motif.hpp"
#include "motifs/runner.hpp"
#include "net/topology.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {

struct TopologyEntry {
  net::TopologyKind kind = net::TopologyKind::kStar;
  std::string description;
};

struct TransportEntry {
  std::string description;
  /// Build the transport over an assembled cluster; the spec supplies
  /// backend knobs (rdma_slots, routing for the ordered-network choice).
  std::function<std::unique_ptr<motifs::Transport>(
      cluster::Cluster& cluster, const ScenarioSpec& spec)>
      make;
};

struct MotifEntry {
  std::string description;
  /// Build per-rank programs for spec.nodes ranks from spec.motif_params.
  /// Must be pure (no shared mutable state): parallel grids call it from
  /// several worker threads. Returns an empty vector with *error set on
  /// bad parameters.
  std::function<std::vector<motifs::RankProgram>(const ScenarioSpec& spec,
                                                 std::string* error)>
      build;
  /// API-layer motif: when set, `build` is unused and run_scenario runs
  /// the returned motif directly against the public rvma.h surface. The
  /// API layer *is* the transport, so validation rejects any transport
  /// but "rvma" (see motifs/api_motif.hpp). Same purity contract as
  /// `build`; returns nullptr with *error set on bad parameters.
  std::function<std::unique_ptr<motifs::ApiMotif>(const ScenarioSpec& spec,
                                                  std::string* error)>
      build_api{};
};

template <typename Entry>
class Registry {
 public:
  void add(const std::string& name, Entry entry) {
    entries_[name] = std::move(entry);
  }
  const Entry* find(const std::string& name) const {
    const auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
  }
  /// Sorted (name, entry) view for --list and the registry smoke tests.
  const std::map<std::string, Entry>& entries() const { return entries_; }

 private:
  std::map<std::string, Entry> entries_;
};

/// Singletons with builtins pre-registered.
Registry<TopologyEntry>& topologies();
Registry<TransportEntry>& transports();
Registry<MotifEntry>& motifs_registry();

/// Parse "static" / "adaptive" (also accepts the figure label "DOR" for
/// static dimension-order routing). Returns false on unknown names.
bool parse_routing(const std::string& name, net::Routing* out);

// Builtin registration hooks, one per backend family; called once from
// the singleton accessors. Defined next to the backends they register.
void register_builtin_topologies(Registry<TopologyEntry>& reg);
void register_builtin_transports(Registry<TransportEntry>& reg);
void register_builtin_motifs(Registry<MotifEntry>& reg);

}  // namespace rvma::scenario
