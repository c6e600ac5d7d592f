// rvbench — host-time benchmark driver for the RVMA simulator.
//
// Every mode prints one JSON object per line on stdout; run.py parses
// them, applies the output checks and reports the metrics. All wall
// clocks are std::chrono::steady_clock.
//
//   rvbench info
//       Build provenance: build type, compiler, host core count.
//   rvbench run --seconds=S --out=DIR CELL.json...
//       One workload: the scenario cells run back to back through
//       scenario::run_scenario with tracing off. The workload repeats
//       until another repetition would overrun S seconds (at least once),
//       one "rep" line each. The first repetition's metrics documents go
//       to DIR/<cell>.metrics.json.
//   rvbench setup CELL.json...
//       Set-up-only samples of the workload (validate + Cluster
//       construction per cell) for about a second, 5 to 200 of them, one
//       "setup" line each. A process of its own, so every run starts from
//       the same allocator state.
//   rvbench trace --out=DIR CELL.json...
//       Per cell, untraced / traced / traced / untraced runs (traced: flight
//       recorder armed, PDES profile written). The first pair's metrics
//       documents are written, so run.py can prove the traced run passive
//       and read the layer counts; the sums give the tracing overhead.
//   rvbench layers --topology=T --routing=R --nodes=N --msg-bytes=B
//                  --get-bytes=G --windows=M --seed=S
//       Per-layer drivers: each calls one layer's public functions, shaped
//       like the workload it serves, and reports host ns per operation.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/rvma.h"
#include "cluster/cluster.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/rss.hpp"
#include "core/endpoint.hpp"
#include "obs/metrics_io.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "sim/sharded_engine.hpp"

namespace {

using namespace rvma;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One JSON object, built field by field.
class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, buf);
  }
  JsonLine& count(const char* key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonLine& flag(const char* key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonLine& str(const char* key, const std::string& v) {
    std::string quoted = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return raw(key, quoted + "\"");
  }
  JsonLine& raw(const char* key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    body_ += json;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }
  void print() const {
    std::printf("%s\n", done().c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

int fail(const std::string& msg) {
  std::fprintf(stderr, "rvbench: %s\n", msg.c_str());
  return 2;
}

bool load_cells(const std::vector<std::string>& files,
                std::vector<scenario::ScenarioSpec>* out, std::string* error) {
  for (std::size_t i = 1; i < files.size(); ++i) {
    std::ifstream in(files[i]);
    if (!in) {
      *error = "cannot read " + files[i];
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    scenario::ScenarioSpec spec;
    if (!scenario::spec_from_json(text.str(), &spec, error)) return false;
    if (spec.name.empty()) {
      *error = files[i] + ": cell needs a name";
      return false;
    }
    out->push_back(std::move(spec));
  }
  if (out->empty()) *error = "no cells given";
  return !out->empty();
}

/// The spec -> NetworkConfig mapping scenario::run_scenario applies (it is
/// private to src/scenario/runner.cpp), for set-up samples and the layer
/// drivers that build a Cluster directly.
bool network_config(const scenario::ScenarioSpec& spec,
                    net::NetworkConfig* cfg, std::string* error) {
  const scenario::TopologyEntry* topo =
      scenario::topologies().find(spec.topology);
  if (topo == nullptr) {
    *error = "unknown topology " + spec.topology;
    return false;
  }
  if (!scenario::parse_routing(spec.routing, &cfg->routing)) {
    *error = "unknown routing " + spec.routing;
    return false;
  }
  cfg->topology = topo->kind;
  cfg->nodes_hint = spec.nodes;
  cfg->link.bw = spec.link_bandwidth;
  cfg->link.latency = spec.link_latency;
  cfg->long_link_latency = spec.long_link_latency;
  cfg->switch_latency = spec.switch_latency;
  cfg->xbar_factor = spec.xbar_factor;
  cfg->concentration = spec.concentration;
  cfg->seed = spec.seed;
  cfg->express = spec.express;
  cfg->route_table = spec.route_table == "materialized"
                         ? net::RouteTable::kMaterialized
                         : net::RouteTable::kAlgebraic;
  return true;
}

/// Restart the kernel's peak-RSS (VmHWM) tracking, so each repetition
/// reports its own peak. False where /proc/self/clear_refs is not writable.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

bool write_text(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

// ------------------------------------------------------------ cell runs

struct CellRun {
  bool ok = false;
  std::string error;
  double validate_s = 0;
  double run_s = 0;  ///< the whole run_scenario call
  scenario::RunTiming timing;
  scenario::ScenarioResult result;
  std::string doc;  ///< canonical rvma-metrics-v1 text
};

CellRun run_cell(const scenario::ScenarioSpec& spec) {
  CellRun r;
  const auto t0 = Clock::now();
  if (!scenario::validate_scenario(spec, &r.error)) return r;
  r.validate_s = seconds_since(t0);
  const auto t1 = Clock::now();
  if (!scenario::run_scenario(spec, &r.result, &r.error, nullptr, 0,
                              &r.timing)) {
    return r;
  }
  r.run_s = seconds_since(t1);
  r.doc = obs::to_json(scenario::build_scenario_metrics_doc(spec, r.result));
  r.ok = true;
  return r;
}

std::string cell_json(const std::string& name, const CellRun& r) {
  JsonLine j;
  j.str("name", name)
      .flag("ok", r.ok)
      .str("error", r.error)
      .num("validate_s", r.validate_s)
      .num("construct_s", r.timing.construct_wall_s)
      .num("sim_s", r.timing.sim_wall_s)
      .num("run_s", r.run_s)
      .count("makespan_ps", r.result.makespan)
      .count("packets_injected", r.result.packets_injected)
      .count("packets_delivered", r.result.packets_delivered)
      .count("engine_events", r.result.engine_events)
      .count("route_cache_hits", r.result.route_cache_hits);
  return j.done();
}

int cmd_run(const Cli& cli) {
  const double budget_s = cli.get_double("seconds", 10);
  const std::string dir = cli.get("out", ".");
  std::vector<scenario::ScenarioSpec> cells;
  std::string error;
  if (!load_cells(cli.positional(), &cells, &error)) return fail(error);
  for (const auto& key : cli.unconsumed()) {
    return fail("unknown option --" + key);
  }

  std::vector<std::string> first_docs(cells.size());
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool rss_reset = reset_peak_rss();
    const auto t0 = Clock::now();
    std::string cell_list;
    std::vector<bool> doc_same(cells.size(), true);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellRun r = run_cell(cells[i]);
      if (rep == 0) {
        first_docs[i] = r.doc;
        if (r.ok && !write_text(dir + "/" + cells[i].name + ".metrics.json",
                                r.doc)) {
          return fail("cannot write metrics into " + dir);
        }
      } else {
        doc_same[i] = r.doc == first_docs[i];
      }
      if (!cell_list.empty()) cell_list += ',';
      cell_list += cell_json(cells[i].name, r);
    }
    const double wall = seconds_since(t0);
    std::string same_list;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      same_list += (i == 0 ? "" : ",");
      same_list += doc_same[i] ? "true" : "false";
    }
    JsonLine()
        .str("kind", "rep")
        .count("index", static_cast<std::uint64_t>(rep))
        .num("wall_s", wall)
        .count("peak_rss_bytes", peak_rss_bytes())
        .flag("rss_reset", rss_reset)
        .raw("doc_same_as_first", "[" + same_list + "]")
        .raw("cells", "[" + cell_list + "]")
        .print();
    if (seconds_since(start) + wall > budget_s) break;
  }
  return 0;
}

int cmd_setup(const Cli& cli) {
  std::vector<scenario::ScenarioSpec> cells;
  std::string error;
  if (!load_cells(cli.positional(), &cells, &error)) return fail(error);
  for (const auto& key : cli.unconsumed()) {
    return fail("unknown option --" + key);
  }

  constexpr double kSetupBudgetS = 1;
  constexpr int kMinSetupSamples = 5;
  constexpr int kMaxSetupSamples = 200;
  const auto start = Clock::now();
  for (int s = 0; s < kMaxSetupSamples; ++s) {
    if (s >= kMinSetupSamples && seconds_since(start) > kSetupBudgetS)
      break;
    double setup_s = 0;
    std::string shards;
    for (const auto& spec : cells) {
      const auto t0 = Clock::now();
      net::NetworkConfig cfg;
      if (!scenario::validate_scenario(spec, &error) ||
          !network_config(spec, &cfg, &error)) {
        return fail(error);
      }
      nic::NicParams nic;
      nic.doorbell_batch = static_cast<std::uint32_t>(spec.doorbell_batch);
      const int requested = spec.sample_period > 0 ? 1 : spec.par_shards;
      auto cluster = std::make_unique<cluster::Cluster>(cfg, nic, requested);
      setup_s += seconds_since(t0);
      shards += (shards.empty() ? "" : ",") +
                std::to_string(cluster->num_shards());
    }
    JsonLine()
        .str("kind", "setup")
        .count("index", static_cast<std::uint64_t>(s))
        .num("setup_s", setup_s)
        .raw("effective_shards", "[" + shards + "]")
        .print();
  }
  return 0;
}

int cmd_trace(const Cli& cli) {
  const std::string dir = cli.get("out", ".");
  std::vector<scenario::ScenarioSpec> cells;
  std::string error;
  if (!load_cells(cli.positional(), &cells, &error)) return fail(error);
  for (const auto& key : cli.unconsumed()) {
    return fail("unknown option --" + key);
  }

  for (const auto& spec : cells) {
    const std::string base = dir + "/" + spec.name;
    scenario::ScenarioSpec traced_spec = spec;
    traced_spec.flight_recorder_path = base + ".rvfr";
    traced_spec.pdes_profile_path = base + ".pdes.json";
    scenario::ScenarioSpec retraced_spec = traced_spec;
    retraced_spec.pdes_profile_path = base + ".2.pdes.json";
    // Untraced, traced, traced, untraced: the overhead estimate from the
    // two sums cancels a host speed drifting linearly across the four.
    const CellRun plain = run_cell(spec);
    const CellRun traced = run_cell(traced_spec);
    const CellRun retraced = run_cell(retraced_spec);
    const CellRun replain = run_cell(spec);
    if (!write_text(base + ".untraced.metrics.json", plain.doc) ||
        !write_text(base + ".traced.metrics.json", traced.doc)) {
      return fail("cannot write metrics into " + dir);
    }
    // The span dump only has to exist; drop it so repeated runs do not
    // fill the checkout.
    std::uint64_t dump_bytes = 0;
    if (std::ifstream dump{traced_spec.flight_recorder_path,
                           std::ios::binary | std::ios::ate}) {
      dump_bytes = static_cast<std::uint64_t>(dump.tellg());
    }
    std::remove(traced_spec.flight_recorder_path.c_str());
    std::remove(retraced_spec.pdes_profile_path.c_str());
    const auto wall = [](const CellRun& a, const CellRun& b) {
      return a.validate_s + a.run_s + b.validate_s + b.run_s;
    };
    JsonLine()
        .str("kind", "trace")
        .str("name", spec.name)
        .raw("untraced", cell_json(spec.name, plain))
        .raw("traced", cell_json(spec.name, traced))
        .num("untraced_wall_s", wall(plain, replain))
        .num("traced_wall_s", wall(traced, retraced))
        .flag("repeats_identical",
              replain.doc == plain.doc && retraced.doc == traced.doc)
        .str("untraced_doc", base + ".untraced.metrics.json")
        .str("traced_doc", base + ".traced.metrics.json")
        .str("pdes_profile", traced_spec.pdes_profile_path)
        .count("flight_dump_bytes", dump_bytes)
        .print();
  }
  return 0;
}

// --------------------------------------------------------- layer drivers

/// Hold model on one Engine: `depth` pending events; every executed event
/// schedules one successor at a random later instant until `successors`
/// run out, so the heap stays `depth` deep for the timed run.
double heap_ns_per_event(std::size_t depth, std::uint64_t successors,
                         std::uint64_t seed) {
  struct Hold {
    sim::Engine engine;
    Rng rng;
    std::uint64_t left = 0;
    void fire() {
      if (left == 0) return;
      --left;
      const Time t = engine.now() + 1 + rng.next_below(1'000'000);
      engine.schedule_at_ranked(t, engine.now(), rng() | 1, [this] { fire(); });
    }
  };
  auto hold = std::make_unique<Hold>();
  hold->rng.reseed(seed);
  hold->left = successors;
  Hold* h = hold.get();
  for (std::size_t i = 0; i < depth; ++i) {
    h->engine.schedule_at_ranked(h->rng.next_below(1'000'000), 0, h->rng() | 1,
                                 [h] { h->fire(); });
  }
  const auto t0 = Clock::now();
  h->engine.run();
  const double s = seconds_since(t0);
  return s * 1e9 / static_cast<double>(h->engine.executed_events());
}

constexpr std::uint32_t kBenchProto = 3;  ///< a NIC protocol slot no stack uses
constexpr std::uint32_t kMtu = 4096;      ///< nic::NicParams default
constexpr int kRoundMessages = 256;

void register_sink(cluster::Cluster& c, std::uint64_t* received) {
  for (int n = 0; n < c.num_nodes(); ++n) {
    c.nic(n).register_proto(kBenchProto,
                            [received](const net::Packet&) { ++*received; });
  }
}

std::pair<int, int> random_pair(Rng& rng, int nodes) {
  const auto n = static_cast<std::uint64_t>(nodes);
  const int src = static_cast<int>(rng.next_below(n));
  const int dst = (src + 1 + static_cast<int>(rng.next_below(n - 1))) % nodes;
  return {src, dst};
}

struct InjectResult {
  double ns_per_packet = 0;
  double express_share = 0;
  bool ok = false;
};

/// Fabric::inject_burst of whole messages (the NIC's MTU segmentation)
/// between random node pairs, run to delivery.
InjectResult inject_ns_per_packet(const net::NetworkConfig& cfg,
                                  std::uint64_t msg_bytes, std::uint64_t seed,
                                  double budget_s) {
  cluster::Cluster c(cfg, nic::NicParams{}, 1);
  std::uint64_t received = 0;
  register_sink(c, &received);
  net::Fabric& fabric = c.network().fabric();
  Rng rng(seed);
  const auto total = static_cast<std::uint32_t>((msg_bytes + kMtu - 1) / kMtu);
  std::vector<net::Packet> burst;
  std::uint64_t packets = 0;
  std::uint64_t next_id = 1;
  double timed = 0;
  while (timed < budget_s) {
    const auto t0 = Clock::now();
    for (int m = 0; m < kRoundMessages; ++m) {
      const auto [src, dst] = random_pair(rng, c.num_nodes());
      net::Message msg;
      msg.src = src;
      msg.dst = dst;
      msg.id = next_id++;
      msg.bytes = msg_bytes;
      msg.hdr.kind = net::make_kind(kBenchProto, 0);
      msg.created_at = c.engine().now();
      const net::MsgRef ref = net::MsgRef::make(std::move(msg));
      std::uint64_t offset = 0;
      for (std::uint32_t seq = 0; seq < total; ++seq) {
        net::Packet pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.msg = ref;
        pkt.offset = offset;
        pkt.bytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(kMtu, msg_bytes - offset));
        pkt.seq = seq;
        pkt.total = total;
        offset += pkt.bytes;
        burst.push_back(std::move(pkt));
      }
      fabric.inject_burst(burst);
      packets += total;
    }
    c.engine().run();
    timed += seconds_since(t0);
  }
  const net::FabricStats stats = c.fabric_stats();
  InjectResult r;
  r.ok = received == packets && stats.packets_delivered == packets;
  r.ns_per_packet = timed * 1e9 / static_cast<double>(packets);
  r.express_share = static_cast<double>(stats.express_commits) /
                    static_cast<double>(stats.packets_injected);
  return r;
}

/// Nic::send of workload-sized messages between random pairs, through
/// segmentation, fabric and NIC receive to the protocol handler.
double nic_send_ns_per_msg(const net::NetworkConfig& cfg,
                           std::uint64_t msg_bytes, std::uint64_t seed,
                           double budget_s, bool* ok) {
  cluster::Cluster c(cfg, nic::NicParams{}, 1);
  std::uint64_t received = 0;
  register_sink(c, &received);
  Rng rng(seed);
  const std::uint64_t per_msg = (msg_bytes + kMtu - 1) / kMtu;
  std::uint64_t messages = 0;
  double timed = 0;
  while (timed < budget_s) {
    const auto t0 = Clock::now();
    for (int m = 0; m < kRoundMessages; ++m) {
      const auto [src, dst] = random_pair(rng, c.num_nodes());
      net::Message msg;
      msg.src = src;
      msg.dst = dst;
      msg.bytes = msg_bytes;
      msg.hdr.kind = net::make_kind(kBenchProto, 0);
      c.nic(src).send(std::move(msg));
    }
    c.engine().run();
    timed += seconds_since(t0);
    messages += kRoundMessages;
  }
  *ok = received == messages * per_msg;
  return timed * 1e9 / static_cast<double>(messages);
}

/// RvmaEndpoint::post_buffer + put into one of `windows` live mailboxes on
/// one target: per round, one buffer posted and one put sent per window.
double core_post_deliver_ns(const net::NetworkConfig& cfg,
                            std::uint64_t msg_bytes, int windows,
                            double budget_s, bool* ok) {
  cluster::Cluster c(cfg, nic::NicParams{}, 1);
  const int src = 0;
  const int dst = c.num_nodes() / 2;
  core::RvmaEndpoint target(c.nic(dst), core::RvmaParams{});
  core::RvmaEndpoint initiator(c.nic(src), core::RvmaParams{});
  constexpr std::uint64_t kVaddr = 0x1000;
  for (int w = 0; w < windows; ++w) {
    target.init_window(kVaddr + static_cast<std::uint64_t>(w),
                       static_cast<std::int64_t>(msg_bytes),
                       core::EpochType::kBytes);
  }
  std::vector<std::byte> pool(static_cast<std::size_t>(windows) * msg_bytes);
  const std::vector<std::byte> payload(msg_bytes, std::byte{0x5a});
  std::uint64_t ops = 0;
  double timed = 0;
  while (timed < budget_s) {
    const auto t0 = Clock::now();
    for (int w = 0; w < windows; ++w) {
      const std::uint64_t vaddr = kVaddr + static_cast<std::uint64_t>(w);
      std::byte* buffer = pool.data() + static_cast<std::size_t>(w) * msg_bytes;
      target.post_buffer(vaddr, std::span<std::byte>(buffer, msg_bytes),
                         nullptr, nullptr);
      initiator.put(dst, vaddr, 0, payload.data(), msg_bytes);
    }
    c.engine().run();
    timed += seconds_since(t0);
    ops += static_cast<std::uint64_t>(windows);
  }
  *ok = target.stats().completions == ops;
  return timed * 1e9 / static_cast<double>(ops);
}

struct ApiResult {
  double put_ns = 0, get_ns = 0, poll_ns = 0;
  bool ok = false;
};

/// rvma_put / rvma_get_ex / rvma_poll between two contexts: rounds of
/// kRoundMessages puts of `put_bytes` (run to completion), a drain of the
/// target's completion queue, then kRoundMessages gets of `get_bytes`
/// (run to completion).
ApiResult api_ns(const net::NetworkConfig& cfg, std::uint64_t put_bytes,
                 std::uint64_t get_bytes, double budget_s) {
  cluster::Cluster c(cfg, nic::NicParams{}, 1);
  const int src = 0;
  const int dst = c.num_nodes() / 2;
  rvma_ctx a = rvma_initialize(&c, src);
  rvma_ctx b = rvma_initialize(&c, dst);
  constexpr std::uint64_t kPutVaddr = 0x2000;
  constexpr std::uint64_t kGetVaddr = 0x3000;
  const auto n = static_cast<std::size_t>(kRoundMessages);
  const auto put_len = static_cast<std::int64_t>(put_bytes);
  const auto get_len = static_cast<std::int64_t>(get_bytes);
  std::vector<std::byte> pool(n * put_bytes);
  std::vector<std::byte> local(n * get_bytes);
  std::vector<std::byte> source(std::max(put_bytes, get_bytes),
                                std::byte{0x3c});
  rvma_win put_win =
      rvma_init_window(b, kPutVaddr, nullptr, put_len, RVMA_EPOCH_BYTES);
  rvma_win get_win =
      rvma_init_window(b, kGetVaddr, nullptr, get_len, RVMA_EPOCH_BYTES);
  bool ok = rvma_post_buffer(get_win, source.data(), get_len, nullptr) ==
            RVMA_SUCCESS;
  std::uint64_t replies = 0;
  const rvma_notify_fn on_reply = [](void* arg, void*, std::int64_t) {
    ++*static_cast<std::uint64_t*>(arg);
  };
  ApiResult r;
  std::uint64_t puts = 0, polls = 0, gets = 0, polled = 0;
  double put_s = 0, get_s = 0, poll_s = 0;
  while (put_s + get_s + poll_s < budget_s) {
    for (std::size_t i = 0; i < n; ++i) {
      ok &= rvma_post_buffer(put_win, pool.data() + i * put_bytes, put_len,
                             nullptr) == RVMA_SUCCESS;
    }
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      ok &= rvma_put(a, source.data(), dst, kPutVaddr, put_len) ==
            RVMA_SUCCESS;
    }
    rvma_sim_run(&c);
    put_s += seconds_since(t0);
    puts += n;

    t0 = Clock::now();
    rvma_completion done;
    while (rvma_poll(b, &done) == 1) ++polled;
    ++polls;  // the final empty poll
    poll_s += seconds_since(t0);

    t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      ok &= rvma_get_ex(a, dst, kGetVaddr, 0, get_len,
                        local.data() + i * get_bytes, 0, on_reply,
                        &replies) == RVMA_SUCCESS;
    }
    rvma_sim_run(&c);
    get_s += seconds_since(t0);
    gets += n;
    while (rvma_poll(a, nullptr) == 1) {
    }
  }
  polls += polled;
  r.ok = ok && replies == gets && polled == puts &&
         rvma_win_completions(put_win) == puts;
  r.put_ns = put_s * 1e9 / static_cast<double>(puts);
  r.get_ns = get_s * 1e9 / static_cast<double>(gets);
  r.poll_ns = poll_s * 1e9 / static_cast<double>(polls);
  rvma_finalize(a);
  rvma_finalize(b);
  return r;
}

/// ShardedEngine round trip at K shards with nothing to exchange: every
/// shard runs one local event per window, so a window costs the barrier,
/// the (empty) drain and the window computation.
double pdes_window_ns(int shards, std::uint64_t windows) {
  constexpr Time kLookahead = 1000;
  struct Chain {
    sim::Engine engine;
    std::uint64_t left = 0;
    void fire() {
      if (left == 0) return;
      --left;
      engine.schedule(kLookahead, [this] { fire(); });
    }
  };
  std::vector<std::unique_ptr<Chain>> chains;
  sim::ShardedEngine se;
  for (int k = 0; k < shards; ++k) {
    chains.push_back(std::make_unique<Chain>());
    Chain* ch = chains.back().get();
    ch->left = windows;
    ch->engine.schedule_at(0, [ch] { ch->fire(); });
    se.attach(&ch->engine);
  }
  se.set_lookahead(kLookahead);
  const auto t0 = Clock::now();
  se.run_windowed();
  const double s = seconds_since(t0);
  const auto windows_run = std::max<std::uint64_t>(1, se.windows_executed());
  return s * 1e9 / static_cast<double>(windows_run);
}

int cmd_layers(const Cli& cli) {
  scenario::ScenarioSpec spec;
  spec.topology = cli.get("topology", "star");
  spec.routing = cli.get("routing", "static");
  spec.nodes = static_cast<int>(cli.get_int("nodes", 2));
  spec.seed = static_cast<std::uint64_t>(cli.get_int("seed", 2021));
  const auto msg_bytes =
      static_cast<std::uint64_t>(cli.get_int("msg-bytes", 4096));
  const auto get_bytes = static_cast<std::uint64_t>(
      cli.get_int("get-bytes", static_cast<std::int64_t>(
                                   std::min<std::uint64_t>(msg_bytes, kMtu))));
  const int windows = static_cast<int>(cli.get_int("windows", 1));
  constexpr double kBudgetS = 0.5;  // host time per round-based driver
  for (const auto& key : cli.unconsumed()) {
    return fail("unknown option --" + key);
  }
  net::NetworkConfig cfg;
  std::string error;
  if (!network_config(spec, &cfg, &error)) return fail(error);
  if (spec.nodes < 2 || msg_bytes == 0 || windows < 1 || get_bytes == 0 ||
      get_bytes > kMtu) {
    return fail("layers needs nodes >= 2, msg-bytes > 0, windows >= 1, "
                "0 < get-bytes <= 4096");
  }

  const InjectResult inject =
      inject_ns_per_packet(cfg, msg_bytes, spec.seed, kBudgetS);
  bool nic_ok = false, core_ok = false;
  const double nic_ns =
      nic_send_ns_per_msg(cfg, msg_bytes, spec.seed + 1, kBudgetS, &nic_ok);
  const double core_ns =
      core_post_deliver_ns(cfg, msg_bytes, windows, kBudgetS, &core_ok);
  const ApiResult api = api_ns(
      cfg, std::min<std::uint64_t>(msg_bytes, kMtu), get_bytes, kBudgetS);
  JsonLine()
      .str("kind", "layers")
      .flag("ok", inject.ok && nic_ok && core_ok && api.ok)
      .num("sim.heap_ns_per_event.d1e3",
           heap_ns_per_event(1000, 2'000'000, spec.seed))
      .num("sim.heap_ns_per_event.d1e6",
           heap_ns_per_event(1'000'000, 2'000'000, spec.seed))
      .num("net.inject_ns_per_packet", inject.ns_per_packet)
      .num("net.express_share", inject.express_share)
      .num("nic.send_ns_per_msg", nic_ns)
      .num("core.post_deliver_ns", core_ns)
      .num("api.put_ns", api.put_ns)
      .num("api.get_ns", api.get_ns)
      .num("api.poll_ns", api.poll_ns)
      .num("pdes.window_ns", pdes_window_ns(4, 20'000))
      .print();
  return 0;
}

int cmd_info() {
  JsonLine()
      .str("kind", "info")
      .str("build_type", RVBENCH_BUILD_TYPE)
      .str("compiler", RVBENCH_COMPILER)
      .count("hardware_threads", std::thread::hardware_concurrency())
      .print();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli(argc, argv);
  if (cli.positional().empty()) {
    return fail("usage: rvbench info|run|setup|trace|layers ...");
  }
  const std::string mode = cli.positional()[0];
  if (mode == "info") return cmd_info();
  if (mode == "run") return cmd_run(cli);
  if (mode == "setup") return cmd_setup(cli);
  if (mode == "trace") return cmd_trace(cli);
  if (mode == "layers") return cmd_layers(cli);
  return fail("unknown mode " + mode);
}
