#include "registry/registry.hpp"

#include <mutex>
#include <stdexcept>

#include "common/config.hpp"

namespace ppf::registry {

// Defined in registry/builtin.cpp; declared here (not in the header) so
// nothing outside the registry can call it directly.
void detail_register_builtins();

namespace {

template <typename Factory>
struct Entry {
  std::string key;
  std::string help;
  Factory make;
};

/// One registry table. Guarded by a mutex: registration happens at
/// startup or from tests, lookups from runlab worker threads. Entries
/// stay in registration order for deterministic listings.
template <typename Factory>
class Table {
 public:
  void add(const std::string& key, const std::string& help, Factory make,
           const char* what) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : rows_) {
      if (e.key == key) {
        throw std::invalid_argument(std::string(what) + " '" + key +
                                    "' is already registered");
      }
    }
    rows_.push_back(Entry<Factory>{key, help, std::move(make)});
  }

  [[nodiscard]] bool has(const std::string& key) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : rows_) {
      if (e.key == key) return true;
    }
    return false;
  }

  [[nodiscard]] Factory find(const std::string& key, const char* what) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& e : rows_) {
      if (e.key == key) return e.make;
    }
    throw std::invalid_argument(std::string("unknown ") + what + " '" + key +
                                "' (valid: " + joined_locked() + ")");
  }

  [[nodiscard]] std::vector<std::string> keys() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> out;
    out.reserve(rows_.size());
    for (const auto& e : rows_) out.push_back(e.key);
    return out;
  }

  [[nodiscard]] std::vector<PolicyDoc> docs() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<PolicyDoc> out;
    out.reserve(rows_.size());
    for (const auto& e : rows_) out.push_back({e.key, e.help});
    return out;
  }

  [[nodiscard]] std::string joined() {
    std::lock_guard<std::mutex> lock(mu_);
    return joined_locked();
  }

 private:
  [[nodiscard]] std::string joined_locked() {
    std::string s;
    for (const auto& e : rows_) {
      if (!s.empty()) s += '|';
      s += e.key;
    }
    return s;
  }

  std::mutex mu_;
  /// Touched only under mu_ (every public method takes the lock;
  /// joined_locked is called with it held).
  std::vector<Entry<Factory>> rows_;
};

using ReplacementFactory = mem::ReplacementKind;

struct Registries {
  Table<FilterFactory> filters;
  Table<PrefetcherFactory> prefetchers;
  Table<ReplacementFactory> replacements;
};

Registries& tables() {
  static Registries r;
  return r;
}

std::once_flag builtins_once;
/// True on the thread currently inside detail_register_builtins, so the
/// builtins' own register_* calls don't re-enter the call_once.
thread_local bool registering_builtins = false;

void ensure_builtins() {
  if (registering_builtins) return;
  std::call_once(builtins_once, [] {
    registering_builtins = true;
    detail_register_builtins();
    registering_builtins = false;
  });
}

}  // namespace

// The public register_* entry points force builtin registration first so
// a collision with a builtin key throws no matter when the caller runs
// (an out-of-tree "nsp" must fail even before any lookup touched the
// registry).
void register_filter(const std::string& key, const std::string& help,
                     FilterFactory make) {
  ensure_builtins();
  tables().filters.add(key, help, std::move(make), "filter");
}

void register_prefetcher(const std::string& key, const std::string& help,
                         PrefetcherFactory make) {
  ensure_builtins();
  tables().prefetchers.add(key, help, std::move(make), "prefetcher");
}

void register_replacement(const std::string& key, const std::string& help,
                          mem::ReplacementKind kind) {
  ensure_builtins();
  tables().replacements.add(key, help, kind, "replacement policy");
}

bool has_filter(const std::string& key) {
  ensure_builtins();
  return tables().filters.has(key);
}

bool has_prefetcher(const std::string& key) {
  ensure_builtins();
  return tables().prefetchers.has(key);
}

bool has_replacement(const std::string& key) {
  ensure_builtins();
  return tables().replacements.has(key);
}

std::vector<std::string> filter_keys() {
  ensure_builtins();
  return tables().filters.keys();
}

std::vector<std::string> prefetcher_keys() {
  ensure_builtins();
  return tables().prefetchers.keys();
}

std::vector<std::string> replacement_keys() {
  ensure_builtins();
  return tables().replacements.keys();
}

std::vector<PolicyDoc> filter_docs() {
  ensure_builtins();
  return tables().filters.docs();
}

std::vector<PolicyDoc> prefetcher_docs() {
  ensure_builtins();
  return tables().prefetchers.docs();
}

std::vector<PolicyDoc> replacement_docs() {
  ensure_builtins();
  return tables().replacements.docs();
}

std::string valid_filter_values() {
  ensure_builtins();
  return tables().filters.joined();
}

std::string valid_prefetcher_values() {
  ensure_builtins();
  return tables().prefetchers.joined();
}

std::string valid_replacement_values() {
  ensure_builtins();
  return tables().replacements.joined();
}

std::unique_ptr<filter::PollutionFilter> make_filter(
    const std::string& key, const FilterContext& ctx) {
  ensure_builtins();
  return tables().filters.find(key, "filter")(ctx);
}

std::unique_ptr<prefetch::Prefetcher> make_prefetcher(
    const std::string& key, const PrefetcherContext& ctx) {
  ensure_builtins();
  return tables().prefetchers.find(key, "prefetcher")(ctx);
}

mem::ReplacementKind parse_replacement(const std::string& key) {
  ensure_builtins();
  return tables().replacements.find(key, "replacement policy");
}

std::string replacement_key(mem::ReplacementKind kind) {
  // The built-in keys are exactly mem::to_string's names; an out-of-tree
  // registration aliases an existing kind, never extends the enum.
  return mem::to_string(kind);
}

std::vector<std::string> parse_prefetcher_list(const std::string& csv) {
  ensure_builtins();
  std::vector<std::string> out;
  // split_list drops empty items, so "", "nsp," and ",sdp" are tolerated.
  for (const std::string& name : split_list(csv)) {
    if (!tables().prefetchers.has(name)) {
      throw std::invalid_argument("unknown prefetcher '" + name +
                                  "' (valid: " +
                                  tables().prefetchers.joined() + ")");
    }
    for (const std::string& seen : out) {
      if (seen == name) {
        throw std::invalid_argument("duplicate prefetcher '" + name +
                                    "' in list '" + csv + "'");
      }
    }
    out.push_back(name);
  }
  return out;
}

}  // namespace ppf::registry
