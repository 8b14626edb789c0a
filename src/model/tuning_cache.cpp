#include "model/tuning_cache.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "simd/isa.hpp"

namespace egemm::model {

namespace {

/// Largest bucketed extent: every axis above 1024 lands in one "large"
/// class, where the per-GEMM schedule already saturates the pool and a
/// tuned grain stops mattering.
constexpr std::uint32_t kLargeBucket = 2048;

std::uint32_t bucket_extent(std::size_t x) noexcept {
  if (x <= 1) return 1;
  if (x > 1024) return kLargeBucket;
  std::uint32_t b = 1;
  while (b < x) b <<= 1;
  return b;
}

// -- minimal JSON reader -----------------------------------------------------
// Hand-rolled for the tuning-file subset (objects, arrays, strings,
// numbers, bools, null); the repo bakes in no JSON dependency and the
// bench-side parser lives above this layer. Strict enough to reject
// truncated or trailing-garbage files.

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : p_(text.data()), end_(text.data() + text.size()) {}

  bool parse(JsonValue& out) {
    if (!parse_value(out)) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ != end_ &&
           std::isspace(static_cast<unsigned char>(*p_)) != 0) {
      ++p_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (p_ == end_ || *p_ != c) return false;
    ++p_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{':
        return parse_object(out);
      case '[':
        return parse_array(out);
      case '"':
        out.kind = JsonValue::Kind::kString;
        return parse_string(out.string);
      case 't':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = true;
        return parse_literal("true");
      case 'f':
        out.kind = JsonValue::Kind::kBool;
        out.boolean = false;
        return parse_literal("false");
      case 'n':
        out.kind = JsonValue::Kind::kNull;
        return parse_literal("null");
      default:
        return parse_number(out);
    }
  }

  bool parse_literal(const char* lit) {
    for (; *lit != '\0'; ++lit, ++p_) {
      if (p_ == end_ || *p_ != *lit) return false;
    }
    return true;
  }

  bool parse_number(JsonValue& out) {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool digits = false;
    while (p_ != end_ && (std::isdigit(static_cast<unsigned char>(*p_)) != 0 ||
                          *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                          *p_ == '-' || *p_ == '+')) {
      digits = digits || std::isdigit(static_cast<unsigned char>(*p_)) != 0;
      ++p_;
    }
    if (!digits) return false;
    out.kind = JsonValue::Kind::kNumber;
    out.number = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }

  bool parse_string(std::string& out) {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    out.clear();
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        switch (*p_) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return false;  // \uXXXX never appears in tuning files
        }
        ++p_;
      } else {
        out += *p_++;
      }
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }

  bool parse_array(JsonValue& out) {
    out.kind = JsonValue::Kind::kArray;
    if (!consume('[')) return false;
    skip_ws();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return true;
    }
    for (;;) {
      JsonValue element;
      if (!parse_value(element)) return false;
      out.array.push_back(std::move(element));
      skip_ws();
      if (consume(',')) continue;
      return consume(']');
    }
  }

  bool parse_object(JsonValue& out) {
    out.kind = JsonValue::Kind::kObject;
    if (!consume('{')) return false;
    skip_ws();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(key)) return false;
      if (!consume(':')) return false;
      JsonValue value;
      if (!parse_value(value)) return false;
      out.object.emplace_back(std::move(key), std::move(value));
      if (consume(',')) continue;
      return consume('}');
    }
  }

  const char* p_;
  const char* end_;
};

bool json_size(const JsonValue* v, std::size_t* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber || v->number < 0) {
    return false;
  }
  *out = static_cast<std::size_t>(v->number);
  return true;
}

bool json_int(const JsonValue* v, int* out) {
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return false;
  *out = static_cast<int>(v->number);
  return true;
}

/// "MxNxK" -> bucketed class; the stored buckets must already be buckets
/// (a file keyed off-bucket would silently never hit).
bool parse_shape_class(const std::string& name, TuningShapeClass* out) {
  unsigned long m = 0;
  unsigned long n = 0;
  unsigned long k = 0;
  char tail = '\0';
  if (std::sscanf(name.c_str(), "%lux%lux%lu%c", &m, &n, &k, &tail) != 3) {
    return false;
  }
  if (m == 0 || n == 0 || k == 0) return false;
  out->m = static_cast<std::uint32_t>(m);
  out->n = static_cast<std::uint32_t>(n);
  out->k = static_cast<std::uint32_t>(k);
  return *out == tuning_shape_class(m, n, k);
}

bool parse_entry(const JsonValue& v, TuningEntry* out, std::string* error) {
  if (v.kind != JsonValue::Kind::kObject) {
    *error = "entry is not an object";
    return false;
  }
  const JsonValue* shape = v.find("shape_class");
  if (shape == nullptr || shape->kind != JsonValue::Kind::kString ||
      !parse_shape_class(shape->string, &out->shape)) {
    *error = "entry has a missing or off-bucket shape_class";
    return false;
  }
  const JsonValue* tile = v.find("tile");
  if (tile == nullptr || tile->kind != JsonValue::Kind::kObject ||
      !json_int(tile->find("bm"), &out->tile.bm) ||
      !json_int(tile->find("bn"), &out->tile.bn) ||
      !json_int(tile->find("bk"), &out->tile.bk) ||
      !json_int(tile->find("wm"), &out->tile.wm) ||
      !json_int(tile->find("wn"), &out->tile.wn) ||
      !json_int(tile->find("wk"), &out->tile.wk)) {
    *error = "entry " + shape->string + " has an invalid tile";
    return false;
  }
  if (!json_size(v.find("grain"), &out->grain)) {
    *error = "entry " + shape->string + " has an invalid grain";
    return false;
  }
  const JsonValue* isa = v.find("isa");
  if (isa == nullptr || isa->kind != JsonValue::Kind::kString ||
      !simd::parse_isa_name(isa->string)) {
    *error = "entry " + shape->string + " has an invalid isa";
    return false;
  }
  out->isa = isa->string;
  const JsonValue* ns = v.find("ns_per_call");
  if (ns != nullptr && ns->kind == JsonValue::Kind::kNumber) {
    out->ns_per_call = ns->number;
  }
  const JsonValue* gf = v.find("gflops");
  if (gf != nullptr && gf->kind == JsonValue::Kind::kNumber) {
    out->gflops = gf->number;
  }
  return true;
}

void count_lookup(TuningLookup outcome) {
  switch (outcome) {
    case TuningLookup::kHit:
      EGEMM_COUNTER_ADD("gemm.tune.hit", 1);
      break;
    case TuningLookup::kMiss:
      EGEMM_COUNTER_ADD("gemm.tune.miss", 1);
      break;
    case TuningLookup::kNoFile:
      EGEMM_COUNTER_ADD("gemm.tune.fallback", 1);
      break;
  }
}

void append_json_double(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

TuningShapeClass tuning_shape_class(std::size_t m, std::size_t n,
                                    std::size_t k) noexcept {
  return TuningShapeClass{bucket_extent(m), bucket_extent(n),
                          bucket_extent(k)};
}

std::string tuning_shape_class_name(const TuningShapeClass& cls) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%ux%ux%u", cls.m, cls.n, cls.k);
  return buf;
}

bool TuningCache::load_file(const std::string& path, std::string* error) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return load_locked(path, error);
}

bool TuningCache::load_locked(const std::string& path,
                              std::string* error) const {
  env_checked_ = true;
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      loaded_ = false;
      entries_.clear();
      inline_threshold_.reset();
      source_.clear();
      if (error != nullptr) *error = "cannot open " + path;
      return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    text = buffer.str();
  }

  std::string why;
  std::vector<TuningEntry> parsed;
  std::optional<std::size_t> threshold;
  JsonValue root;
  bool ok = JsonParser(text).parse(root) &&
            root.kind == JsonValue::Kind::kObject;
  if (!ok) why = "malformed JSON";
  if (ok) {
    const JsonValue* schema = root.find("schema");
    const JsonValue* version = root.find("version");
    int v = -1;
    if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
        schema->string != kTuningSchemaName) {
      ok = false;
      why = "schema tag is not " + std::string(kTuningSchemaName);
    } else if (!json_int(version, &v) || v != kTuningSchemaVersion) {
      ok = false;
      why = "stale schema version (want " +
            std::to_string(kTuningSchemaVersion) + ")";
    }
  }
  if (ok) {
    const JsonValue* thr = root.find("small_gemm_inline_threshold");
    if (thr != nullptr) {
      std::size_t value = 0;
      if (!json_size(thr, &value)) {
        ok = false;
        why = "invalid small_gemm_inline_threshold";
      } else {
        threshold = value;
      }
    }
  }
  if (ok) {
    const JsonValue* entries = root.find("entries");
    if (entries == nullptr || entries->kind != JsonValue::Kind::kArray) {
      ok = false;
      why = "missing entries array";
    } else {
      for (const JsonValue& v : entries->array) {
        TuningEntry entry;
        if (!parse_entry(v, &entry, &why)) {
          ok = false;
          break;
        }
        parsed.push_back(std::move(entry));
      }
    }
  }

  if (!ok) {
    loaded_ = false;
    entries_.clear();
    inline_threshold_.reset();
    source_.clear();
    if (error != nullptr) *error = path + ": " + why;
    return false;
  }
  loaded_ = true;
  source_ = path;
  entries_ = std::move(parsed);
  inline_threshold_ = threshold;
  return true;
}

void TuningCache::set_entries(std::vector<TuningEntry> entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  env_checked_ = true;
  loaded_ = true;
  source_ = "<direct>";
  entries_ = std::move(entries);
}

void TuningCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  env_checked_ = false;
  loaded_ = false;
  source_.clear();
  entries_.clear();
  inline_threshold_.reset();
}

bool TuningCache::loaded() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  maybe_load_env_locked();
  return loaded_;
}

std::size_t TuningCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  maybe_load_env_locked();
  return entries_.size();
}

std::string TuningCache::source() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  maybe_load_env_locked();
  return source_;
}

void TuningCache::maybe_load_env_locked() const {
  if (env_checked_) return;
  env_checked_ = true;
  const char* path = std::getenv("EGEMM_TUNING_FILE");
  if (path == nullptr || *path == '\0') return;
  std::string error;
  if (!load_locked(path, &error)) {
    std::fprintf(stderr, "egemm: ignoring EGEMM_TUNING_FILE: %s\n",
                 error.c_str());
  }
}

TuningLookup TuningCache::lookup(std::size_t m, std::size_t n, std::size_t k,
                                 TuningEntry* out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  maybe_load_env_locked();
  if (!loaded_) {
    count_lookup(TuningLookup::kNoFile);
    return TuningLookup::kNoFile;
  }
  const TuningShapeClass cls = tuning_shape_class(m, n, k);
  const char* active = simd::active_isa_name();
  const TuningEntry* any = nullptr;
  const TuningEntry* tier = nullptr;
  for (const TuningEntry& entry : entries_) {
    if (!(entry.shape == cls)) continue;
    if (any == nullptr) any = &entry;
    if (tier == nullptr && entry.isa == active) tier = &entry;
  }
  const TuningEntry* best = tier != nullptr ? tier : any;
  if (best == nullptr) {
    count_lookup(TuningLookup::kMiss);
    return TuningLookup::kMiss;
  }
  if (out != nullptr) *out = *best;
  count_lookup(TuningLookup::kHit);
  return TuningLookup::kHit;
}

std::optional<std::size_t> TuningCache::inline_threshold() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  maybe_load_env_locked();
  return inline_threshold_;
}

TuningCache& TuningCache::global() {
  static TuningCache cache;
  return cache;
}

std::string TuningCache::to_json(std::span<const TuningEntry> entries,
                                 const std::string& generator,
                                 std::optional<std::size_t> inline_threshold) {
  std::string out = "{\n";
  out += "  \"schema\": \"";
  out += kTuningSchemaName;
  out += "\",\n  \"version\": ";
  out += std::to_string(kTuningSchemaVersion);
  out += ",\n  \"generator\": \"";
  out += generator;  // callers pass plain tool tags, no escaping needed
  out += "\",\n";
  if (inline_threshold) {
    out += "  \"small_gemm_inline_threshold\": ";
    out += std::to_string(*inline_threshold);
    out += ",\n";
  }
  out += "  \"entries\": [";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const TuningEntry& e = entries[i];
    out += i == 0 ? "\n" : ",\n";
    out += "    {\"shape_class\": \"";
    out += tuning_shape_class_name(e.shape);
    out += "\",\n     \"tile\": {\"bm\": " + std::to_string(e.tile.bm) +
           ", \"bn\": " + std::to_string(e.tile.bn) +
           ", \"bk\": " + std::to_string(e.tile.bk) +
           ", \"wm\": " + std::to_string(e.tile.wm) +
           ", \"wn\": " + std::to_string(e.tile.wn) +
           ", \"wk\": " + std::to_string(e.tile.wk) + "},\n";
    out += "     \"grain\": " + std::to_string(e.grain);
    out += ", \"isa\": \"" + e.isa + "\"";
    out += ", \"ns_per_call\": ";
    append_json_double(out, e.ns_per_call);
    out += ", \"gflops\": ";
    append_json_double(out, e.gflops);
    out += "}";
  }
  out += entries.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace egemm::model
