// The scenario layer's contracts: canonical JSON round-trips are
// byte-stable, CLI flags overlay with the right precedence, every
// registered backend materializes a minimal scenario, and the
// emit-grid -> rvma_run chain reproduces the pre-refactor figure_bench
// output byte for byte (goldens captured before the migration).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/wait.h>

#include "scenario/figure_grid.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace rvma::scenario {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ScenarioSpec full_spec() {
  ScenarioSpec spec;
  spec.name = "unit \"quoted\" name";
  spec.topology = "dragonfly";
  spec.routing = "adaptive";
  spec.nodes = 72;
  spec.link_bandwidth = Bandwidth::gbps(400);
  spec.link_latency = 150 * kNanosecond;
  spec.switch_latency = 100 * kNanosecond;
  spec.xbar_factor = 2.5;
  spec.concentration = 4;
  spec.express = false;
  spec.transport = "rdma";
  spec.rdma_slots = 4;
  spec.doorbell_batch = 3;
  spec.motif = "sweep3d";
  spec.motif_params = {{"nx", "48"}, {"compute_per_cell", "20ps"},
                       {"bytes", "64KiB"}};
  spec.seed = 0xDEADBEEFULL;
  spec.sample_period = 2 * kMicrosecond;
  spec.metrics_path = "out/metrics.json";
  spec.flight_recorder_path = "out/flight.rvfr";
  spec.flight_recorder_capacity = 4096;
  spec.pdes_profile_path = "out/pdes.json";
  return spec;
}

TEST(ScenarioSpecJson, RoundTripIsByteStable) {
  for (const ScenarioSpec& spec : {ScenarioSpec{}, full_spec()}) {
    const std::string first = to_json(spec);
    ScenarioSpec parsed;
    std::string error;
    ASSERT_TRUE(spec_from_json(first, &parsed, &error)) << error;
    EXPECT_EQ(parsed, spec);
    EXPECT_EQ(to_json(parsed), first);  // write(parse(write(s))) == write(s)
  }
}

TEST(ScenarioSpecJson, GridRoundTripIsByteStable) {
  GridSpec grid;
  grid.figure = "Figure 8";
  grid.motif_label = "Halo3D";
  grid.base = full_spec();
  grid.cases = {"torus3d-static", "hyperx-DOR"};
  grid.gbps = {100, 2000};
  const std::string first = to_json(grid);
  GridSpec parsed;
  std::string error;
  ASSERT_TRUE(grid_from_json(first, &parsed, &error)) << error;
  EXPECT_EQ(parsed, grid);
  EXPECT_EQ(to_json(parsed), first);

  EXPECT_TRUE(looks_like_grid(first));
  EXPECT_FALSE(looks_like_grid(to_json(grid.base)));
}

TEST(ScenarioSpecJson, RejectsBadDocuments) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(spec_from_json("{not json", &spec, &error));
  EXPECT_FALSE(spec_from_json("{\"format\": \"something-else\"}", &spec,
                              &error));
  EXPECT_NE(error.find("format"), std::string::npos);
  // A grid document is not a scenario document.
  GridSpec grid;
  EXPECT_FALSE(spec_from_json(to_json(grid), &spec, &error));
  // Bad unit strings fail the parse, not the simulation.
  std::string text = to_json(ScenarioSpec{});
  const std::string needle = "\"link_bandwidth\": \"100Gbps\"";
  const auto pos = text.find(needle);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, needle.size(), "\"link_bandwidth\": \"100 knots\"");
  EXPECT_FALSE(spec_from_json(text, &spec, &error));
  EXPECT_NE(error.find("link_bandwidth"), std::string::npos);
}

/// Parse `scenario_body` as the "scenario" member of a scenario document.
bool parse_scenario(const std::string& scenario_body, std::string* error) {
  ScenarioSpec spec;
  return spec_from_json(
      "{\"format\": \"rvma-scenario-v1\", \"scenario\": " + scenario_body +
          "}",
      &spec, error);
}

/// A typo'd key or a value of the wrong JSON type used to fall back to
/// the default silently (static routing, seed 2021, 2 nodes); each must
/// now fail the parse and name the key.
TEST(ScenarioSpecJson, RejectsUnknownKeysAndWrongTypes) {
  std::string error;
  EXPECT_FALSE(parse_scenario(
      R"({"topology": {"kind": "torus3d", "routng": "adaptive"}})", &error));
  EXPECT_NE(error.find("topology.routng"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"seeed": 7})", &error));
  EXPECT_NE(error.find("seeed"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"transport": {"knd": "rdma"}})", &error));
  EXPECT_NE(error.find("transport.knd"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"motif": {"kind": "halo3d", "parms": {}}})",
                              &error));
  EXPECT_NE(error.find("motif.parms"), std::string::npos) << error;

  EXPECT_FALSE(parse_scenario(R"({"topology": {"nodes": "64"}})", &error));
  EXPECT_NE(error.find("topology.nodes"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"topology": {"nodes": 6.5}})", &error));
  EXPECT_NE(error.find("topology.nodes"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"seed": "7"})", &error));
  EXPECT_NE(error.find("\"seed\""), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"seed": -1})", &error));
  EXPECT_NE(error.find("\"seed\""), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"topology": {"express": "no"}})", &error));
  EXPECT_NE(error.find("topology.express"), std::string::npos) << error;
  EXPECT_FALSE(parse_scenario(R"({"topology": "torus3d"})", &error));
  EXPECT_NE(error.find("topology"), std::string::npos) << error;

  // The documents the benchmark driver writes still parse; motif param
  // names are the motif's to check (validate_scenario), not the parser's.
  ASSERT_TRUE(parse_scenario(
      R"({"name": "c", "topology": {"kind": "torus3d", "routing": "adaptive",
          "nodes": 64, "link_bandwidth": "100Gbps"},
          "transport": {"kind": "rvma"},
          "motif": {"kind": "halo3d", "params": {"anything": "1"}},
          "seed": 7, "par_shards": 4})",
      &error))
      << error;

  // The top level of both document kinds is checked too.
  ScenarioSpec spec;
  EXPECT_FALSE(spec_from_json(
      R"({"format": "rvma-scenario-v1", "scenario": {}, "extra": 1})", &spec,
      &error));
  EXPECT_NE(error.find("extra"), std::string::npos) << error;
  GridSpec grid;
  std::string text = to_json(GridSpec{});
  ASSERT_TRUE(grid_from_json(text, &grid, &error)) << error;
  text.replace(text.find("\"cases\""), 7, "\"case\"");
  EXPECT_FALSE(grid_from_json(text, &grid, &error));
  EXPECT_NE(error.find("case"), std::string::npos) << error;
  text = to_json(GridSpec{});
  text.replace(text.find("\"gbps\": [100"), 12, "\"gbps\": [\"100\"");
  EXPECT_FALSE(grid_from_json(text, &grid, &error));
  EXPECT_NE(error.find("gbps"), std::string::npos) << error;
  text = to_json(GridSpec{});
  text.replace(text.find("\"rdma_slots\""), 12, "\"rdma_slot\"");
  EXPECT_FALSE(grid_from_json(text, &grid, &error));
  EXPECT_NE(error.find("base.transport.rdma_slot"), std::string::npos)
      << error;
}

/// The per-destination route table is gone: a spec asking for it fails
/// loud instead of silently running the computed next hops.
TEST(ScenarioSpecJson, RejectsRemovedMaterializedRouteTable) {
  std::string error;
  EXPECT_FALSE(parse_scenario(
      R"({"topology": {"kind": "torus3d", "route_table": "materialized"}})",
      &error));
  EXPECT_NE(error.find("route_table"), std::string::npos) << error;
  EXPECT_NE(error.find("removed"), std::string::npos) << error;
  EXPECT_TRUE(parse_scenario(
      R"({"topology": {"kind": "torus3d", "route_table": "algebraic"}})",
      &error))
      << error;
}

TEST(ScenarioCliOverlay, FlagsWinOverFileValues) {
  ScenarioSpec spec = full_spec();
  const char* argv[] = {"prog",
                        "--nodes=16",
                        "--transport=rvma",
                        "--topology=star",
                        "--routing=static",
                        "--bandwidth=2Tbps",
                        "--link-latency=250ns",
                        "--motif.vars=8",
                        "--motif.nx=16",
                        "--seed=7",
                        "--sample-period=5us",
                        "--express",
                        "--metrics=other.json"};
  Cli cli(static_cast<int>(std::size(argv)), argv);
  std::string error;
  ASSERT_TRUE(apply_cli_overlay(cli, &spec, &error)) << error;
  EXPECT_TRUE(cli.unconsumed().empty());

  EXPECT_EQ(spec.nodes, 16);
  EXPECT_EQ(spec.transport, "rvma");
  EXPECT_EQ(spec.topology, "star");
  EXPECT_EQ(spec.routing, "static");
  EXPECT_EQ(spec.link_bandwidth, Bandwidth::tbps(2));
  EXPECT_EQ(spec.link_latency, 250 * kNanosecond);
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_EQ(spec.sample_period, 5 * kMicrosecond);
  EXPECT_TRUE(spec.express);  // --express overrides the file's false
  EXPECT_EQ(spec.metrics_path, "other.json");
  // --motif.<k> merges over file params: overridden, added, untouched.
  EXPECT_EQ(spec.motif_params.at("nx"), "16");
  EXPECT_EQ(spec.motif_params.at("vars"), "8");
  EXPECT_EQ(spec.motif_params.at("bytes"), "64KiB");
  // Untouched file fields survive.
  EXPECT_EQ(spec.rdma_slots, 4);
  EXPECT_EQ(spec.motif, "sweep3d");

  // Bad unit values are rejected with the flag named.
  const char* bad[] = {"prog", "--bandwidth=fast"};
  Cli bad_cli(2, bad);
  EXPECT_FALSE(apply_cli_overlay(bad_cli, &spec, &error));
  EXPECT_NE(error.find("bandwidth"), std::string::npos);
}

TEST(ScenarioValidate, RejectsUnknownNamesAndParams) {
  ScenarioSpec spec;
  spec.nodes = 4;
  std::string error;
  ASSERT_TRUE(validate_scenario(spec, &error)) << error;

  ScenarioSpec bad_topo = spec;
  bad_topo.topology = "moebius";
  EXPECT_FALSE(validate_scenario(bad_topo, &error));
  EXPECT_NE(error.find("moebius"), std::string::npos);

  ScenarioSpec bad_transport = spec;
  bad_transport.transport = "tcp";
  EXPECT_FALSE(validate_scenario(bad_transport, &error));

  ScenarioSpec bad_motif = spec;
  bad_motif.motif = "fft";
  EXPECT_FALSE(validate_scenario(bad_motif, &error));

  // Typo'd motif params fail loudly instead of simulating defaults.
  ScenarioSpec typo = spec;
  typo.motif_params["iteraitons"] = "2";
  EXPECT_FALSE(validate_scenario(typo, &error));
  EXPECT_NE(error.find("iteraitons"), std::string::npos);

  ScenarioSpec bad_value = spec;
  bad_value.motif_params["iterations"] = "lots";
  EXPECT_FALSE(validate_scenario(bad_value, &error));
  EXPECT_NE(error.find("iterations"), std::string::npos);
}

/// Node and shard counts are range-checked once, in validate_scenario,
/// whichever source set them; a non-positive count used to simulate an
/// empty machine and exit 0.
TEST(ScenarioValidate, RejectsNonPositiveCounts) {
  ScenarioSpec spec;
  spec.nodes = 4;
  std::string error;
  ASSERT_TRUE(validate_scenario(spec, &error)) << error;
  for (const int nodes : {0, -4}) {
    ScenarioSpec bad = spec;
    bad.nodes = nodes;
    EXPECT_FALSE(validate_scenario(bad, &error)) << nodes;
    EXPECT_NE(error.find("nodes"), std::string::npos) << error;
    ScenarioResult result;
    EXPECT_FALSE(run_scenario(bad, &result, &error)) << nodes;
  }
  for (const int shards : {0, -3}) {
    ScenarioSpec bad = spec;
    bad.par_shards = shards;
    EXPECT_FALSE(validate_scenario(bad, &error)) << shards;
    EXPECT_NE(error.find("par_shards"), std::string::npos) << error;
  }
  ScenarioSpec bad_batch = spec;
  bad_batch.doorbell_batch = 0;
  EXPECT_FALSE(validate_scenario(bad_batch, &error));
  EXPECT_NE(error.find("doorbell_batch"), std::string::npos) << error;

  // A grid's base is checked before any cell runs.
  GridSpec grid;
  grid.base.nodes = 8;
  grid.base.motif_params = {{"nx", "8"}, {"ny", "8"}, {"nz", "8"},
                            {"vars", "1"}, {"iterations", "1"}};
  grid.base.par_shards = 0;
  grid.cases = {"torus3d-static"};
  grid.gbps = {100};
  std::vector<GridCell> cells;
  EXPECT_FALSE(run_grid(grid, 1, &cells, &error));
  EXPECT_NE(error.find("par_shards"), std::string::npos) << error;
  EXPECT_TRUE(cells.empty());
}

/// An API motif is its own RVMA transport: naming another transport
/// would report an RVMA run under the wrong label, so it fails loud.
TEST(ScenarioValidate, ApiMotifsRejectNonRvmaTransports) {
  ScenarioSpec spec;
  spec.nodes = 4;
  spec.motif = "kv_store";
  spec.motif_params = {{"servers", "1"}, {"requests", "2"}};
  std::string error;
  ASSERT_TRUE(validate_scenario(spec, &error)) << error;
  for (const auto& [name, entry] : transports().entries()) {
    if (name == "rvma") continue;
    spec.transport = name;
    error.clear();
    EXPECT_FALSE(validate_scenario(spec, &error)) << name;
    EXPECT_NE(error.find("\"" + name + "\""), std::string::npos) << error;
    ScenarioResult result;
    EXPECT_FALSE(run_scenario(spec, &result, &error)) << name;
  }
}

/// Minimal motif params keeping the registry smoke fast; every registered
/// motif must have an entry here (the assert below catches new motifs).
const std::map<std::string, MotifParams>& smoke_motif_params() {
  static const std::map<std::string, MotifParams> params = {
      {"halo3d",
       {{"nx", "8"}, {"ny", "8"}, {"nz", "8"}, {"vars", "1"},
        {"iterations", "1"}}},
      {"sweep3d", {{"nx", "8"}, {"ny", "8"}, {"nz", "8"}, {"kba", "4"},
                   {"vars", "1"}}},
      {"incast", {{"messages_per_client", "2"}, {"bytes", "4KiB"}}},
      {"barrier", {{"iterations", "1"}}},
      {"allreduce", {{"bytes", "4KiB"}, {"iterations", "1"}}},
      {"broadcast", {{"bytes", "4KiB"}, {"iterations", "1"}}},
      {"remote_paging", {{"pages_per_rank", "4"}, {"faults", "4"}}},
      {"kv_store", {{"servers", "1"}, {"requests", "2"}}},
      {"alltoall", {{"bytes", "4KiB"}, {"iterations", "1"}}},
  };
  return params;
}

ScenarioSpec smoke_spec() {
  ScenarioSpec spec;
  spec.nodes = 4;
  spec.motif = "barrier";
  spec.motif_params = smoke_motif_params().at("barrier");
  return spec;
}

TEST(ScenarioRegistry, EveryTopologyMaterializes) {
  for (const auto& [name, entry] : topologies().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    ScenarioSpec spec = smoke_spec();
    spec.topology = name;
    ScenarioResult result;
    std::string error;
    ASSERT_TRUE(run_scenario(spec, &result, &error)) << name << ": " << error;
    EXPECT_GT(result.makespan, 0) << name;
    EXPECT_GT(result.packets_delivered, 0u) << name;
  }
}

/// Engine-internal scheduler counters differ between the serial and the
/// windowed scheduler by construction (window wake events); the
/// shards-vs-serial contract (test_pdes_matrix, test_api) compares
/// everything observable except those.
ScenarioResult normalize_engine_internals(ScenarioResult r) {
  r.engine_events = 0;
  r.metrics.counters.erase("engine.events_executed");
  r.metrics.counters.erase("engine.events_scheduled");
  return r;
}

/// Every transport materializes, and its sharded runs match the serial
/// oracle. The sharded half needs a multi-switch topology (the smoke
/// spec's star has one switch, so Cluster clamps it to one shard) and
/// enough traffic that messages complete before their receive is posted.
TEST(ScenarioRegistry, EveryTransportMaterializes) {
  for (const auto& [name, entry] : transports().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    ScenarioSpec spec = smoke_spec();
    spec.transport = name;
    ScenarioResult result;
    std::string error;
    ASSERT_TRUE(run_scenario(spec, &result, &error)) << name << ": " << error;
    EXPECT_GT(result.makespan, 0) << name;

    spec.topology = "torus3d";
    spec.nodes = 27;
    spec.motif = "halo3d";
    spec.motif_params = smoke_motif_params().at("halo3d");
    spec.motif_params["iterations"] = "2";
    ScenarioResult serial;
    ASSERT_TRUE(run_scenario(spec, &serial, &error)) << name << ": " << error;
    serial = normalize_engine_internals(serial);
    EXPECT_GT(serial.packets_delivered, 0u) << name;
    for (int shards : {2, 4}) {
      ScenarioSpec sharded = spec;
      sharded.par_shards = shards;
      // The PDES profile records the shard count the cluster really used.
      sharded.pdes_profile_path =
          ::testing::TempDir() + "pdes_" + name + ".json";
      ScenarioResult out;
      ASSERT_TRUE(run_scenario(sharded, &out, &error))
          << name << " @ par_shards=" << shards << ": " << error;
      EXPECT_EQ(normalize_engine_internals(out), serial)
          << name << " @ par_shards=" << shards;
      EXPECT_NE(read_file(sharded.pdes_profile_path)
                    .find("\"par_shards\":\"" + std::to_string(shards) +
                          "\""),
                std::string::npos)
          << name << " did not shard at par_shards=" << shards;
      std::remove(sharded.pdes_profile_path.c_str());
    }
  }
}

TEST(ScenarioRegistry, EveryMotifMaterializes) {
  for (const auto& [name, entry] : motifs_registry().entries()) {
    EXPECT_FALSE(entry.description.empty()) << name;
    ASSERT_TRUE(smoke_motif_params().count(name))
        << "new motif \"" << name << "\": add smoke params to this test";
    ScenarioSpec spec = smoke_spec();
    spec.motif = name;
    spec.motif_params = smoke_motif_params().at(name);
    ScenarioResult result;
    std::string error;
    ASSERT_TRUE(run_scenario(spec, &result, &error)) << name << ": " << error;
    EXPECT_GT(result.makespan, 0) << name;
  }
}

TEST(ScenarioRun, SameSpecSameResult) {
  ScenarioSpec spec = smoke_spec();
  spec.motif = "halo3d";
  spec.motif_params = smoke_motif_params().at("halo3d");
  ScenarioResult a, b;
  std::string error;
  ASSERT_TRUE(run_scenario(spec, &a, &error)) << error;
  ASSERT_TRUE(run_scenario(spec, &b, &error)) << error;
  EXPECT_EQ(a, b);
}

/// Drop the wall-clock footer lines — the only nondeterministic output.
std::string filter_wall_clock(const std::string& text) {
  std::istringstream in(text);
  std::ostringstream out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("grid wall-clock", 0) == 0) continue;
    if (line.rfind("speedup vs serial", 0) == 0) continue;
    if (line.rfind("metrics written", 0) == 0) continue;
    out << line << '\n';
  }
  return out.str();
}

int run_cmd(const std::string& cmd) { return std::system(cmd.c_str()); }

TEST(ScenarioGolden, RvmaRunReproducesLegacyFig8MiniGrid) {
  const std::string dir = ::testing::TempDir();
  const std::string grid_path = dir + "fig8_mini_grid.json";
  const std::string table1 = dir + "fig8_mini_table1.txt";
  const std::string table4 = dir + "fig8_mini_table4.txt";
  const std::string metrics1 = dir + "fig8_mini_metrics1.json";
  const std::string metrics4 = dir + "fig8_mini_metrics4.json";

  // The bench emits the grid document; rvma_run executes it — the full
  // declarative chain must reproduce the pre-refactor bytes.
  ASSERT_EQ(run_cmd(std::string(FIG8_BIN) + " --quick --nodes=8 --emit-grid=" +
                    grid_path + " > /dev/null"),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + grid_path +
                    " --jobs=1 --metrics=" + metrics1 + " > " + table1),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + grid_path +
                    " --jobs=4 --metrics=" + metrics4 + " > " + table4),
            0);

  const std::string golden_table =
      read_file(std::string(GOLDEN_DIR) + "/fig8_mini_table.golden");
  const std::string golden_metrics =
      read_file(std::string(GOLDEN_DIR) + "/fig8_mini_metrics.golden.json");
  ASSERT_FALSE(golden_table.empty());
  ASSERT_FALSE(golden_metrics.empty());

  EXPECT_EQ(filter_wall_clock(read_file(table1)), golden_table);
  EXPECT_EQ(filter_wall_clock(read_file(table4)), golden_table);
  EXPECT_EQ(read_file(metrics1), golden_metrics);
  EXPECT_EQ(read_file(metrics4), golden_metrics);

  for (const std::string& p :
       {grid_path, table1, table4, metrics1, metrics4}) {
    std::remove(p.c_str());
  }
}

TEST(ScenarioGolden, RvmaRunSingleScenarioIsDeterministic) {
  const std::string dir = ::testing::TempDir();
  const std::string spec_path = dir + "smoke_spec.json";
  ScenarioSpec spec = smoke_spec();
  spec.name = "smoke";
  {
    std::ofstream out(spec_path);
    out << to_json(spec);
  }
  const std::string out_a = dir + "smoke_a.txt";
  const std::string out_b = dir + "smoke_b.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path + " > " +
                    out_a),
            0);
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path +
                    " --transport=rdma > " + out_b),
            0);
  const std::string a = read_file(out_a);
  EXPECT_NE(a.find("makespan"), std::string::npos);
  EXPECT_NE(a.find("transport rvma"), std::string::npos);
  EXPECT_NE(read_file(out_b).find("transport rdma"), std::string::npos);

  // --print round-trips the effective spec as canonical JSON.
  const std::string out_p = dir + "smoke_p.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " " + spec_path +
                    " --print > " + out_p),
            0);
  EXPECT_EQ(read_file(out_p), to_json(spec));

  // --list names every registered backend.
  const std::string out_l = dir + "smoke_l.txt";
  ASSERT_EQ(run_cmd(std::string(RVMA_RUN_BIN) + " --list > " + out_l), 0);
  const std::string listing = read_file(out_l);
  for (const auto& [name, entry] : topologies().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  for (const auto& [name, entry] : transports().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;
  for (const auto& [name, entry] : motifs_registry().entries())
    EXPECT_NE(listing.find(name), std::string::npos) << name;

  for (const std::string& p : {spec_path, out_a, out_b, out_p, out_l}) {
    std::remove(p.c_str());
  }
}

/// Exit status of a shell command (-1 when it did not exit normally).
int exit_code(const std::string& cmd) {
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(ScenarioCli, CountsAndRemovedFlagsFailLoud) {
  const std::string dir = ::testing::TempDir();
  const std::string spec_path = dir + "cli_spec.json";
  {
    std::ofstream out(spec_path);
    out << to_json(smoke_spec());
  }
  const std::string rvma_run =
      std::string(RVMA_RUN_BIN) + " " + spec_path + " ";
  const std::string fig8 = std::string(FIG8_BIN) + " --quick --nodes=8 ";
  const std::string quiet = " > /dev/null 2>&1";
  ASSERT_EQ(exit_code(rvma_run + quiet), 0);
  // Non-positive counts, from a flag or a grid's base.
  EXPECT_EQ(exit_code(rvma_run + "--nodes=-4" + quiet), 2);
  EXPECT_EQ(exit_code(rvma_run + "--par-shards=0" + quiet), 2);
  EXPECT_EQ(exit_code(fig8 + "--par-shards=0" + quiet), 2);
  EXPECT_EQ(exit_code(fig8 + "--par-shards=-3" + quiet), 2);
  // --route-table is no longer an option anywhere.
  EXPECT_EQ(exit_code(rvma_run + "--route-table=algebraic" + quiet), 2);
  EXPECT_EQ(exit_code(fig8 + "--route-table=materialized" + quiet), 2);
  std::remove(spec_path.c_str());
}

}  // namespace
}  // namespace rvma::scenario
