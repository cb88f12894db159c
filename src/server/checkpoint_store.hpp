// DurableCheckpointStore: the forecast service's checkpoint blobs,
// spilled to disk with crash-safe writes, verified reloads, epoch
// retention, and an LRU RAM cache in front.
//
// The in-memory CheckpointStore (ensemble.hpp) dies with the process and
// offers no fallback when a blob goes bad — both fatal for the retry
// ladder, which must re-dispatch a request from "the last durable epoch"
// after a worker is quarantined. This store keeps the base class's exact
// get/put semantics and adds:
//
//   * Durability — every put() frames the blob with io::wrap_blob (magic,
//     length, whole-payload FNV-1a) and lands it on disk via
//     write_file_atomic() (same-directory temp + atomic rename), so a
//     crash mid-write never corrupts the committed epoch and a restarted
//     store finds every blob a previous process put (the constructor
//     rebuilds its index from the directory).
//   * Epoch retention — puts under the same name get increasing epoch
//     numbers (<base>.e<N>.ckpt); the latest keep_epochs files are
//     retained, older ones pruned. The ladder reads the newest epoch
//     and falls back to older ones when verification fails.
//   * Verified reloads — an epoch read from disk must pass the frame
//     check (io::unwrap_blob verifies once and strips the frame once)
//     BEFORE its payload is served; a damaged epoch is skipped
//     (server.checkpoint_corrupt counts it) with zero state mutation
//     anywhere, and the next-older epoch serves instead.
//   * RAM cache — an LRU of ram_entries blobs makes the hot path (the
//     same analysis forked into N members) identical in cost to the
//     in-memory store; only a cache miss or an injected drop touches
//     disk.
//
// The store is payload-agnostic: the forecast service keeps v3 analysis
// streams in one instance and compact JSON results in another, both in
// the same frame. Blob names are arbitrary strings (scenario keys
// contain '|' and '='); files use a sanitized, hash-suffixed base name,
// and a one-line sidecar (<base>.name) records the raw name so a
// restarted store can rebuild the name -> files index without guessing.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/hash.hpp"
#include "src/io/durable_blob.hpp"
#include "src/observability/metrics.hpp"
#include "src/observability/trace.hpp"
#include "src/server/ensemble.hpp"

namespace asuca::server {

struct DurableStoreConfig {
    std::string dir;              ///< spill directory (created if missing)
    std::size_t ram_entries = 8;  ///< LRU cache capacity (>= 1)
    int keep_epochs = 2;          ///< on-disk epochs retained per name
};

class DurableCheckpointStore final : public CheckpointStore {
  public:
    explicit DurableCheckpointStore(DurableStoreConfig config)
        : cfg_(std::move(config)) {
        ASUCA_REQUIRE(!cfg_.dir.empty(), "durable store needs a directory");
        ASUCA_REQUIRE(cfg_.ram_entries >= 1 && cfg_.keep_epochs >= 1,
                      "bad durable store config");
        std::filesystem::create_directories(cfg_.dir);
        recover_index();
    }

    /// Persist the blob as the next epoch of `name` (atomic write-rename),
    /// prune epochs beyond keep_epochs, and front the LRU with it.
    void put(const std::string& name, std::string blob) override {
        auto shared = std::make_shared<const std::string>(std::move(blob));
        std::lock_guard lock(mutex_);
        NameInfo& info = entry_for(name);
        const long long epoch = info.epochs.empty() ? 1
                                                    : info.epochs.back() + 1;
        io::write_file_atomic(path_of(info.base, epoch),
                              io::wrap_blob(*shared));
        info.epochs.push_back(epoch);
        while (info.epochs.size() >
               static_cast<std::size_t>(cfg_.keep_epochs)) {
            std::error_code ec;
            std::filesystem::remove(path_of(info.base, info.epochs.front()),
                                    ec);
            info.epochs.erase(info.epochs.begin());
        }
        if (obs::metrics_enabled()) {
            obs::MetricsRegistry::global()
                .counter("server.checkpoint_spill_bytes")
                .add(shared->size());
        }
        cache_insert(name, std::move(shared));
    }

    /// LRU hit, else the newest on-disk epoch that VERIFIES; a damaged
    /// epoch is skipped (counted) and the next-older one serves instead.
    /// nullptr when the name is unknown or no surviving epoch verifies.
    Blob get(const std::string& name) const override {
        std::lock_guard lock(mutex_);
        if (Blob hit = cache_find(name)) return hit;
        const auto it = index_.find(name);
        if (it == index_.end()) return nullptr;
        const NameInfo& info = it->second;
        for (auto e = info.epochs.rbegin(); e != info.epochs.rend(); ++e) {
            try {
                auto blob = std::make_shared<const std::string>(
                    io::unwrap_blob(io::read_file(path_of(info.base, *e))));
                if (obs::metrics_enabled()) {
                    obs::MetricsRegistry::global()
                        .counter("server.checkpoint_disk_reload")
                        .add();
                }
                cache_insert(name, blob);
                return blob;
            } catch (const Error&) {
                // Unreadable or damaged epoch: reject it wholesale
                // (nothing was mutated — verification ran on a private
                // copy of the bytes) and fall back to the previous one.
            }
            obs::trace_instant("checkpoint_corrupt", "server");
            if (obs::metrics_enabled()) {
                obs::MetricsRegistry::global()
                    .counter("server.checkpoint_corrupt")
                    .add();
            }
        }
        return nullptr;
    }

    /// Name known to the store (RAM or any on-disk epoch). Does not
    /// verify — a store whose every epoch is damaged still claims the
    /// name; get() then returns nullptr and the caller fails loudly.
    bool contains(const std::string& name) const override {
        std::lock_guard lock(mutex_);
        return cache_.count(name) != 0 || index_.count(name) != 0;
    }

    std::size_t size() const override {
        std::lock_guard lock(mutex_);
        return index_.size();
    }

    // --- introspection + fault-injection hooks (tests, chaos gates) ----

    /// Newest on-disk epoch of `name`, or 0 when unknown.
    long long latest_epoch(const std::string& name) const {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(name);
        return it == index_.end() || it->second.epochs.empty()
                   ? 0
                   : it->second.epochs.back();
    }

    std::string epoch_path(const std::string& name, long long epoch) const {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(name);
        ASUCA_REQUIRE(it != index_.end(), "unknown blob '" << name << "'");
        return path_of(it->second.base, epoch);
    }

    /// Evict `name` from the RAM cache so the next get() must reload
    /// (and re-verify) from disk.
    void drop_ram(const std::string& name) const {
        std::lock_guard lock(mutex_);
        const auto it = cache_.find(name);
        if (it == cache_.end()) return;
        lru_.erase(it->second);
        cache_.erase(it);
    }

    /// Damage the newest on-disk epoch of `name`: flip one payload bit
    /// (truncate=false) or cut the file in half (truncate=true). Models
    /// at-rest rot / a torn write under pre-rename semantics; the next
    /// verified get() must skip this epoch. Returns false when the name
    /// has no on-disk epoch.
    bool corrupt_latest_epoch(const std::string& name,
                              bool truncate = false) {
        std::lock_guard lock(mutex_);
        const auto it = index_.find(name);
        if (it == index_.end() || it->second.epochs.empty()) return false;
        const std::string path =
            path_of(it->second.base, it->second.epochs.back());
        std::string bytes = io::read_file(path);
        if (bytes.size() < 64) return false;
        if (truncate) {
            bytes.resize(bytes.size() / 2);
        } else {
            bytes[bytes.size() / 2] ^= 0x10;  // mid-file: a payload byte
        }
        io::write_file_atomic(path, bytes);
        return true;
    }

  private:
    struct NameInfo {
        std::string base;               ///< sanitized on-disk base name
        std::vector<long long> epochs;  ///< surviving epochs, ascending
    };

    std::string path_of(const std::string& base, long long epoch) const {
        return cfg_.dir + "/" + base + ".e" + std::to_string(epoch) +
               ".ckpt";
    }

    /// Sanitized, collision-proof base name: printable-safe prefix plus
    /// an FNV-1a suffix of the raw name (keys contain '|', '=', ':').
    static std::string base_of(const std::string& name) {
        std::string base;
        for (const char ch : name) {
            if (base.size() >= 64) break;
            const bool safe = (ch >= 'a' && ch <= 'z') ||
                              (ch >= 'A' && ch <= 'Z') ||
                              (ch >= '0' && ch <= '9') || ch == '.' ||
                              ch == '-';
            base += safe ? ch : '_';
        }
        char hex[20];
        std::snprintf(hex, sizeof(hex), "-%016llx",
                      static_cast<unsigned long long>(
                          hash::fnv1a_bytes(name.data(), name.size())));
        return base + hex;
    }

    NameInfo& entry_for(const std::string& name) {
        const auto it = index_.find(name);
        if (it != index_.end()) return it->second;
        NameInfo info;
        info.base = base_of(name);
        // Sidecar mapping file -> raw name, so a restarted store can
        // rebuild this index (see recover_index).
        io::write_file_atomic(cfg_.dir + "/" + info.base + ".name", name);
        return index_.emplace(name, std::move(info)).first->second;
    }

    /// Rebuild the name -> epochs index from the spill directory: read
    /// every sidecar, then collect that base's surviving epoch files.
    void recover_index() {
        namespace fs = std::filesystem;
        for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
            const std::string fname = entry.path().filename().string();
            if (fname.size() < 6 ||
                fname.compare(fname.size() - 5, 5, ".name") != 0) {
                continue;
            }
            NameInfo info;
            info.base = fname.substr(0, fname.size() - 5);
            const std::string raw = io::read_file(entry.path().string());
            const std::string prefix = info.base + ".e";
            for (const auto& blob : fs::directory_iterator(cfg_.dir)) {
                const std::string bf = blob.path().filename().string();
                if (bf.size() <= prefix.size() + 5 ||
                    bf.compare(0, prefix.size(), prefix) != 0 ||
                    bf.compare(bf.size() - 5, 5, ".ckpt") != 0) {
                    continue;
                }
                const std::string digits =
                    bf.substr(prefix.size(), bf.size() - prefix.size() - 5);
                if (digits.empty() ||
                    digits.find_first_not_of("0123456789") !=
                        std::string::npos) {
                    continue;
                }
                info.epochs.push_back(std::stoll(digits));
            }
            std::sort(info.epochs.begin(), info.epochs.end());
            index_.emplace(raw, std::move(info));
        }
    }

    // --- LRU cache (name -> blob); mutated from const get(), guarded ---

    Blob cache_find(const std::string& name) const {
        const auto it = cache_.find(name);
        if (it == cache_.end()) return nullptr;
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->second;
    }

    void cache_insert(const std::string& name, Blob blob) const {
        const auto it = cache_.find(name);
        if (it != cache_.end()) {
            it->second->second = std::move(blob);
            lru_.splice(lru_.begin(), lru_, it->second);
            return;
        }
        lru_.emplace_front(name, std::move(blob));
        cache_[name] = lru_.begin();
        while (cache_.size() > cfg_.ram_entries) {
            cache_.erase(lru_.back().first);
            lru_.pop_back();
        }
    }

    DurableStoreConfig cfg_;
    mutable std::mutex mutex_;
    std::map<std::string, NameInfo> index_;
    mutable std::list<std::pair<std::string, Blob>> lru_;
    mutable std::map<std::string,
                     std::list<std::pair<std::string, Blob>>::iterator>
        cache_;
};

}  // namespace asuca::server
