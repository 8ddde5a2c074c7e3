// Interned stat keys and the flat per-step policy-stats table.
//
// StepSnapshot used to carry a std::map<std::string, double> of policy
// counters — one heap-allocating, string-comparing map per simulated step,
// which the profile showed as a fixed tax on every interval regardless of
// policy. Stats are now keyed by StatKey, an index into a process-wide
// string-interning registry, and each snapshot stores a fixed-capacity
// inline table of (key, value) pairs: writing stats is a handful of stores,
// reading by name is one registry lookup plus a short linear scan, and the
// snapshot stays trivially copyable (the static_assert in snapshot.hpp
// guards against a heap-allocating field sneaking back in).
//
// Policies intern their keys once (function-local statics are fine — the
// registry is thread-safe and keys are never invalidated) and write into
// the caller's table each step via MigrationPolicy::stats(PolicyStats&).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

namespace megh {

/// Handle to an interned stat name. Default-constructed keys are invalid;
/// intern() never returns an invalid key. Equal names always intern to the
/// same key for the lifetime of the process.
class StatKey {
 public:
  StatKey() = default;

  /// Intern `name`, registering it on first use. Thread-safe; O(1) amortized.
  static StatKey intern(std::string_view name);

  /// Find an already-interned name; returns an invalid key when `name` was
  /// never interned (useful for "is this stat known at all" queries).
  static StatKey find(std::string_view name);

  /// Number of names interned process-wide so far. The registry is
  /// append-only, so a policy that interns all of its keys in begin() can
  /// assert (and tests can verify) that its per-step stats() calls leave
  /// this count unchanged — the allocation-free-step guarantee.
  static int interned_count();

  bool valid() const { return id_ >= 0; }
  int id() const { return id_; }

  /// The interned name. Requires valid(); the reference lives forever.
  const std::string& name() const;

  friend bool operator==(StatKey a, StatKey b) { return a.id_ == b.id_; }
  friend bool operator!=(StatKey a, StatKey b) { return a.id_ != b.id_; }

 private:
  explicit StatKey(int id) : id_(id) {}
  int id_ = -1;
};

/// Fixed-capacity flat (key, value) table — the per-snapshot stats record.
/// set() appends or overwrites; lookup is a linear scan over at most
/// kCapacity entries. Trivially copyable by design.
class PolicyStats {
 public:
  /// Sized for the hierarchical Megh policy's worst case: its 13 aggregate
  /// keys plus two per-pod keys for up to 16 pods, 45 in all (beyond 16
  /// pods only the aggregates are emitted).
  static constexpr int kCapacity = 48;

  void clear() { size_ = 0; }
  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Append (or overwrite) one entry. Throws Error if the table is full
  /// and `key` is not already present.
  void set(StatKey key, double value);

  StatKey key(int i) const { return keys_[static_cast<std::size_t>(i)]; }
  double value(int i) const { return values_[static_cast<std::size_t>(i)]; }

  /// Pointer to the value for `key`, or nullptr when absent.
  const double* find(StatKey key) const;

  // --- name-based compatibility accessors (report/CSV/tests) ---
  /// 1 when a stat with this name is present, else 0 (std::map idiom).
  int count(std::string_view name) const;
  /// Value by name; throws ConfigError when absent.
  double at(std::string_view name) const;

 private:
  int size_ = 0;
  std::array<StatKey, kCapacity> keys_;
  std::array<double, kCapacity> values_;
};

}  // namespace megh
