#include "scenario/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <string_view>
#include <utility>

#include "obs/json.hpp"

namespace rvma::scenario {

namespace {

/// Shortest decimal rendering that parses back to exactly `v` — the same
/// discipline as the canonical unit writers in src/common/units.
std::string shortest_double(double v) {
  char buf[32];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  std::string s(buf, ptr);
  // JSON number, not a C++ literal: keep it parseable as a double but
  // stable ("1.5" stays "1.5", "2" stays "2").
  return s;
}

void append_quoted(std::string* out, const std::string& s) {
  obs::json_append_escaped(out, s);
}

/// Scenario object body in fixed canonical key order. `indent` is the
/// prefix for member lines (top-level doc: "  "; nested grid base: "    ").
void append_spec_object(std::string* out, const ScenarioSpec& spec,
                        const std::string& indent) {
  const std::string in2 = indent + "  ";
  const std::string in3 = in2 + "  ";
  out->append("{\n");
  if (!spec.name.empty()) {
    out->append(in2).append("\"name\": ");
    append_quoted(out, spec.name);
    out->append(",\n");
  }
  out->append(in2).append("\"topology\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.topology);
  out->append(",\n");
  out->append(in3).append("\"routing\": ");
  append_quoted(out, spec.routing);
  out->append(",\n");
  out->append(in3).append("\"nodes\": ").append(std::to_string(spec.nodes));
  out->append(",\n");
  out->append(in3).append("\"link_bandwidth\": ");
  append_quoted(out, canonical_bandwidth(spec.link_bandwidth));
  out->append(",\n");
  out->append(in3).append("\"link_latency\": ");
  append_quoted(out, canonical_duration(spec.link_latency));
  out->append(",\n");
  out->append(in3).append("\"switch_latency\": ");
  append_quoted(out, canonical_duration(spec.switch_latency));
  out->append(",\n");
  out->append(in3).append("\"xbar_factor\": ")
      .append(shortest_double(spec.xbar_factor))
      .append(",\n");
  out->append(in3).append("\"concentration\": ")
      .append(std::to_string(spec.concentration))
      .append(",\n");
  out->append(in3).append("\"express\": ")
      .append(spec.express ? "true" : "false");
  // Default-valued long_link_latency is omitted so pre-existing specs
  // (and their golden bytes) round-trip unchanged.
  if (spec.long_link_latency != 0) {
    out->append(",\n").append(in3).append("\"long_link_latency\": ");
    append_quoted(out, canonical_duration(spec.long_link_latency));
  }
  out->append("\n");
  out->append(in2).append("},\n");
  out->append(in2).append("\"transport\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.transport);
  out->append(",\n");
  out->append(in3).append("\"rdma_slots\": ")
      .append(std::to_string(spec.rdma_slots));
  // Default-valued doorbell_batch is omitted so pre-existing specs (and
  // their golden bytes) round-trip unchanged.
  if (spec.doorbell_batch != 1) {
    out->append(",\n").append(in3).append("\"doorbell_batch\": ")
        .append(std::to_string(spec.doorbell_batch));
  }
  out->append("\n");
  out->append(in2).append("},\n");
  out->append(in2).append("\"motif\": {\n");
  out->append(in3).append("\"kind\": ");
  append_quoted(out, spec.motif);
  if (spec.motif_params.empty()) {
    out->append("\n");
  } else {
    out->append(",\n");
    out->append(in3).append("\"params\": {\n");
    std::size_t i = 0;
    for (const auto& [key, value] : spec.motif_params) {
      out->append(in3).append("  ");
      append_quoted(out, key);
      out->append(": ");
      append_quoted(out, value);
      out->append(++i < spec.motif_params.size() ? ",\n" : "\n");
    }
    out->append(in3).append("}\n");
  }
  out->append(in2).append("},\n");
  out->append(in2).append("\"seed\": ").append(std::to_string(spec.seed));
  out->append(",\n");
  // Default-valued par_shards is omitted so pre-existing specs (and their
  // golden bytes) round-trip unchanged.
  if (spec.par_shards != 1) {
    out->append(in2).append("\"par_shards\": ")
        .append(std::to_string(spec.par_shards));
    out->append(",\n");
  }
  out->append(in2).append("\"sample_period\": ");
  append_quoted(out, canonical_duration(spec.sample_period));
  if (!spec.metrics_path.empty()) {
    out->append(",\n").append(in2).append("\"metrics\": ");
    append_quoted(out, spec.metrics_path);
  }
  // Like par_shards: output fields default to off and are
  // omitted then, keeping pre-existing specs' golden bytes unchanged.
  if (!spec.flight_recorder_path.empty()) {
    out->append(",\n").append(in2).append("\"flight_recorder\": ");
    append_quoted(out, spec.flight_recorder_path);
  }
  if (spec.flight_recorder_capacity != 0) {
    out->append(",\n")
        .append(in2)
        .append("\"flight_recorder_capacity\": ")
        .append(std::to_string(spec.flight_recorder_capacity));
  }
  if (!spec.pdes_profile_path.empty()) {
    out->append(",\n").append(in2).append("\"pdes_profile\": ");
    append_quoted(out, spec.pdes_profile_path);
  }
  out->append("\n").append(indent).append("}");
}

/// Typed member reads over one JSON object. A present member of the wrong
/// JSON type fails naming its key, and finish() rejects every member no
/// read asked for: a typo'd key or a quoted number must fail loud, not
/// silently simulate the default. The first failure sticks; later reads
/// are no-ops.
class MemberReader {
 public:
  using Kind = obs::JsonValue::Kind;

  /// `doc` prefixes error messages ("scenario", "grid"); `path` prefixes
  /// key names ("", "topology.", "base.motif.").
  MemberReader(const obs::JsonValue& object, const char* doc,
               std::string path, std::string* error)
      : object_(object), doc_(doc), path_(std::move(path)), error_(error) {}

  /// The member `key` when present with JSON type `kind`; nullptr when
  /// absent, mistyped (which fails the reader) or after a failure.
  const obs::JsonValue* get(std::string_view key, Kind kind,
                            const char* want) {
    known_.push_back(key);
    const obs::JsonValue* v = object_.find(key);
    if (v == nullptr || !ok_) return nullptr;
    if (v->kind != kind) {
      fail(key, std::string("must be ") + want);
      return nullptr;
    }
    return v;
  }
  /// An object member; read its keys through nested().
  const obs::JsonValue* object(std::string_view key) {
    return get(key, Kind::kObject, "an object");
  }
  MemberReader nested(const obs::JsonValue& object, std::string_view key) {
    return MemberReader(object, doc_, path_ + std::string(key) + ".", error_);
  }
  const obs::JsonValue* array(std::string_view key) {
    return get(key, Kind::kArray, "an array");
  }
  void string(std::string_view key, std::string* out) {
    if (const auto* v = get(key, Kind::kString, "a string")) *out = v->string;
  }
  void boolean(std::string_view key, bool* out) {
    if (const auto* v = get(key, Kind::kBool, "true or false"))
      *out = v->boolean;
  }
  void number(std::string_view key, double* out) {
    if (const auto* v = get(key, Kind::kNumber, "a number")) *out = v->number;
  }
  /// An integer member that `Int` represents exactly.
  template <typename Int>
  void integer(std::string_view key, Int* out) {
    const auto* v = get(key, Kind::kNumber, "an integer");
    if (v == nullptr) return;
    if (!v->is_integer || !std::in_range<Int>(v->integer)) {
      fail(key, "must be an integer in range");
      return;
    }
    *out = static_cast<Int>(v->integer);
  }
  /// A unit-string member ("100Gbps", "50ns") parsed with `parse`.
  template <typename T>
  void unit(std::string_view key, T* out,
            bool (*parse)(std::string_view, T*)) {
    const auto* v = get(key, Kind::kString, "a unit string");
    if (v != nullptr && !parse(v->string, out))
      fail(key, "has bad value \"" + v->string + "\"");
  }

  /// Rejects the first member no read asked for. False on any failure.
  bool finish() {
    for (const auto& [key, value] : object_.object) {
      if (!ok_) break;
      if (std::find(known_.begin(), known_.end(), key) == known_.end())
        fail(key, "is not a known key");
    }
    return ok_;
  }
  bool fail(std::string_view key, const std::string& what) {
    if (ok_ && error_ != nullptr)
      *error_ = std::string(doc_) + ": \"" + path_ + std::string(key) +
                "\" " + what;
    ok_ = false;
    return false;
  }

 private:
  const obs::JsonValue& object_;
  const char* doc_;
  std::string path_;
  std::string* error_;
  std::vector<std::string_view> known_;
  bool ok_ = true;
};

/// Parse the scenario object `r` reads.
bool parse_spec_object(MemberReader r, ScenarioSpec* out) {
  ScenarioSpec spec;
  r.string("name", &spec.name);
  if (const auto* v = r.object("topology")) {
    MemberReader t = r.nested(*v, "topology");
    t.string("kind", &spec.topology);
    t.string("routing", &spec.routing);
    t.integer("nodes", &spec.nodes);
    t.unit("link_bandwidth", &spec.link_bandwidth, parse_bandwidth);
    t.unit("link_latency", &spec.link_latency, parse_duration);
    t.unit("long_link_latency", &spec.long_link_latency, parse_duration);
    t.unit("switch_latency", &spec.switch_latency, parse_duration);
    t.number("xbar_factor", &spec.xbar_factor);
    t.integer("concentration", &spec.concentration);
    t.boolean("express", &spec.express);
    t.string("route_table", &spec.route_table);
    if (spec.route_table != "algebraic") {
      t.fail("route_table",
             "must be \"algebraic\": the per-destination route table was "
             "removed, static next hops are always computed");
    }
    if (!t.finish()) return false;
  }
  if (const auto* v = r.object("transport")) {
    MemberReader t = r.nested(*v, "transport");
    t.string("kind", &spec.transport);
    t.integer("rdma_slots", &spec.rdma_slots);
    t.integer("doorbell_batch", &spec.doorbell_batch);
    if (!t.finish()) return false;
  }
  if (const auto* v = r.object("motif")) {
    MemberReader m = r.nested(*v, "motif");
    m.string("kind", &spec.motif);
    // Param names are the motif's own; its builder rejects unknown ones.
    if (const auto* params = m.object("params")) {
      for (const auto& [key, value] : params->object) {
        if (!value.is_string())
          return m.fail("params." + key, "must be a string");
        spec.motif_params[key] = value.string;
      }
    }
    if (!m.finish()) return false;
  }
  r.integer("seed", &spec.seed);
  r.integer("par_shards", &spec.par_shards);
  r.unit("sample_period", &spec.sample_period, parse_duration);
  r.string("metrics", &spec.metrics_path);
  r.string("flight_recorder", &spec.flight_recorder_path);
  r.integer("flight_recorder_capacity", &spec.flight_recorder_capacity);
  r.string("pdes_profile", &spec.pdes_profile_path);
  if (!r.finish()) return false;
  *out = std::move(spec);
  return true;
}

}  // namespace

std::string to_json(const ScenarioSpec& spec) {
  std::string out;
  out.append("{\n  \"format\": ");
  append_quoted(&out, kScenarioSchema);
  out.append(",\n  \"scenario\": ");
  append_spec_object(&out, spec, "  ");
  out.append("\n}\n");
  return out;
}

std::string to_json(const GridSpec& grid) {
  std::string out;
  out.append("{\n  \"format\": ");
  append_quoted(&out, kGridSchema);
  out.append(",\n  \"figure\": ");
  append_quoted(&out, grid.figure);
  out.append(",\n  \"motif_label\": ");
  append_quoted(&out, grid.motif_label);
  out.append(",\n  \"cases\": [");
  for (std::size_t i = 0; i < grid.cases.size(); ++i) {
    if (i > 0) out.append(", ");
    append_quoted(&out, grid.cases[i]);
  }
  out.append("],\n  \"gbps\": [");
  for (std::size_t i = 0; i < grid.gbps.size(); ++i) {
    if (i > 0) out.append(", ");
    out.append(shortest_double(grid.gbps[i]));
  }
  out.append("],\n  \"base\": ");
  append_spec_object(&out, grid.base, "  ");
  out.append("\n}\n");
  return out;
}

bool spec_from_json(const std::string& text, ScenarioSpec* out,
                    std::string* error) {
  obs::JsonValue root;
  if (!obs::json_parse(text, &root, error)) return false;
  MemberReader r(root, "scenario", "", error);
  std::string format;
  r.string("format", &format);
  if (format != kScenarioSchema) {
    return r.fail("format",
                  std::string("must be \"") + kScenarioSchema + "\"");
  }
  const auto* spec = r.object("scenario");
  if (spec == nullptr) return r.fail("scenario", "is missing");
  // Keys inside the scenario object are named without a prefix.
  return parse_spec_object(MemberReader(*spec, "scenario", "", error), out) &&
         r.finish();
}

bool grid_from_json(const std::string& text, GridSpec* out,
                    std::string* error) {
  obs::JsonValue root;
  if (!obs::json_parse(text, &root, error)) return false;
  MemberReader r(root, "grid", "", error);
  std::string format;
  r.string("format", &format);
  if (format != kGridSchema)
    return r.fail("format", std::string("must be \"") + kGridSchema + "\"");
  GridSpec grid;
  r.string("figure", &grid.figure);
  r.string("motif_label", &grid.motif_label);
  if (const auto* v = r.array("cases")) {
    grid.cases.clear();
    for (const auto& item : v->array) {
      if (!item.is_string()) return r.fail("cases", "must hold strings");
      grid.cases.push_back(item.string);
    }
  }
  if (const auto* v = r.array("gbps")) {
    grid.gbps.clear();
    for (const auto& item : v->array) {
      if (!item.is_number()) return r.fail("gbps", "must hold numbers");
      grid.gbps.push_back(item.number);
    }
  }
  const auto* base = r.object("base");
  if (base == nullptr) return r.fail("base", "is missing");
  if (!parse_spec_object(r.nested(*base, "base"), &grid.base) ||
      !r.finish()) {
    return false;
  }
  *out = std::move(grid);
  return true;
}

bool looks_like_grid(const std::string& text) {
  obs::JsonValue root;
  std::string error;
  if (!obs::json_parse(text, &root, &error)) return false;
  const auto* format = root.find("format");
  return format != nullptr && format->string == kGridSchema;
}

void apply_base_overlay(const Cli& cli, ScenarioSpec* spec) {
  spec->nodes = static_cast<int>(cli.get_int("nodes", spec->nodes));
  spec->rdma_slots =
      static_cast<int>(cli.get_int("rdma-slots", spec->rdma_slots));
  spec->seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(spec->seed)));
  spec->par_shards =
      static_cast<int>(cli.get_int("par-shards", spec->par_shards));
  if (cli.get_bool("no-express", false)) spec->express = false;
  spec->flight_recorder_path =
      cli.get("flight-recorder", spec->flight_recorder_path);
  spec->pdes_profile_path = cli.get("pdes-profile", spec->pdes_profile_path);
}

bool apply_cli_overlay(const Cli& cli, ScenarioSpec* spec,
                       std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  apply_base_overlay(cli, spec);
  spec->name = cli.get("name", spec->name);
  spec->topology = cli.get("topology", spec->topology);
  spec->routing = cli.get("routing", spec->routing);
  if (cli.has("bandwidth")) {
    const std::string text = cli.get("bandwidth", "");
    if (!parse_bandwidth(text, &spec->link_bandwidth))
      return fail("bad --bandwidth \"" + text + "\"");
  }
  if (cli.has("link-latency")) {
    const std::string text = cli.get("link-latency", "");
    if (!parse_duration(text, &spec->link_latency))
      return fail("bad --link-latency \"" + text + "\"");
  }
  if (cli.has("long-link-latency")) {
    const std::string text = cli.get("long-link-latency", "");
    if (!parse_duration(text, &spec->long_link_latency))
      return fail("bad --long-link-latency \"" + text + "\"");
  }
  if (cli.has("switch-latency")) {
    const std::string text = cli.get("switch-latency", "");
    if (!parse_duration(text, &spec->switch_latency))
      return fail("bad --switch-latency \"" + text + "\"");
  }
  spec->xbar_factor = cli.get_double("xbar-factor", spec->xbar_factor);
  spec->concentration =
      static_cast<int>(cli.get_int("concentration", spec->concentration));
  if (cli.has("express")) spec->express = cli.get_bool("express", true);
  spec->transport = cli.get("transport", spec->transport);
  spec->doorbell_batch =
      static_cast<int>(cli.get_int("doorbell-batch", spec->doorbell_batch));
  spec->motif = cli.get("motif", spec->motif);
  for (const auto& [key, value] : cli.take_prefixed("motif.")) {
    spec->motif_params[key] = value;
  }
  if (cli.has("sample-period")) {
    const std::string text = cli.get("sample-period", "");
    if (!parse_duration(text, &spec->sample_period))
      return fail("bad --sample-period \"" + text + "\"");
  }
  spec->metrics_path = cli.get("metrics", spec->metrics_path);
  spec->flight_recorder_capacity = static_cast<std::uint64_t>(cli.get_int(
      "flight-recorder-capacity",
      static_cast<std::int64_t>(spec->flight_recorder_capacity)));
  return true;
}

const std::string* ParamReader::raw(const std::string& key) {
  consumed_[key] = true;
  const auto it = params_->find(key);
  return it == params_->end() ? nullptr : &it->second;
}

int ParamReader::get_int(const std::string& key, int fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  char* end = nullptr;
  const long value = std::strtol(text->c_str(), &end, 10);
  if (end == text->c_str() || *end != '\0') {
    bad_.push_back(key);
    return fallback;
  }
  return static_cast<int>(value);
}

double ParamReader::get_double(const std::string& key, double fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  // from_chars, not strtod: locale-independent parsing so a comma-decimal
  // LC_NUMERIC cannot alter what a spec's "2.5" means (byte-stability).
  const char* first = text->data();
  const char* last = text->data() + text->size();
  if (first != last && *first == '+') ++first;  // from_chars rejects '+'
  double value = 0.0;
  auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || first == last) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

std::uint64_t ParamReader::get_size(const std::string& key,
                                    std::uint64_t fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  std::uint64_t value = 0;
  if (!parse_size(*text, &value)) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

Time ParamReader::get_duration(const std::string& key, Time fallback) {
  const std::string* text = raw(key);
  if (text == nullptr) return fallback;
  Time value = 0;
  if (!parse_duration(*text, &value)) {
    bad_.push_back(key);
    return fallback;
  }
  return value;
}

std::vector<std::string> ParamReader::unconsumed() const {
  std::vector<std::string> out;
  for (const auto& [key, _] : *params_) {
    if (!consumed_.contains(key)) out.push_back(key);
  }
  return out;
}

}  // namespace rvma::scenario
