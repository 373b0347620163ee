#include "treesched/sim/dispatch_index.hpp"

#include <algorithm>

#include "treesched/util/assert.hpp"

namespace treesched::sim {

namespace {
// Deterministic treap priority: a splitmix-style avalanche of the job id.
// The tree shape must depend only on the entry set so repeated runs (and
// the resume machinery above the engine) stay bit-reproducible.
std::uint32_t priority_of(JobId job) {
  // treesched-lint: allow(inv-raw-id-cast): hash input, not an index — the
  // uint32 truncation of the id is the avalanche's deliberate seed width.
  std::uint64_t z = static_cast<std::uint64_t>(static_cast<std::uint32_t>(job)) +
                    0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return static_cast<std::uint32_t>(z >> 32);
}
}  // namespace

void DispatchIndex::attach_pool(TreapPool* pool) {
  TS_REQUIRE(root_ == kNil, "attach_pool on a non-empty dispatch index");
  pool_ = pool;
  owned_.reset();
  table_ = kNil;
  table_fresh_ = false;
}

TreapPool& DispatchIndex::pool() {
  if (pool_ == nullptr) {
    owned_ = std::make_unique<TreapPool>();
    pool_ = owned_.get();
  }
  return *pool_;
}

DispatchIndex::Ref DispatchIndex::alloc(const SjfKey& key, double remaining) {
  const Ref t = pool().alloc();
  Node& n = pool_->node(t);
  n.key = key;
  n.rem = remaining;
  n.frac = remaining / key.size;
  n.sum_rem = n.rem;
  n.sum_frac = n.frac;
  n.cnt = 1;
  n.left = kNil;
  n.right = kNil;
  n.prio = priority_of(key.job);
  return t;
}

void DispatchIndex::pull(Ref t) {
  Node& n = pool_->node(t);
  n.cnt = 1;
  n.sum_rem = n.rem;
  n.sum_frac = n.frac;
  if (n.left != kNil) {
    const Node& l = pool_->node(n.left);
    n.cnt += l.cnt;
    n.sum_rem += l.sum_rem;
    n.sum_frac += l.sum_frac;
  }
  if (n.right != kNil) {
    const Node& r = pool_->node(n.right);
    n.cnt += r.cnt;
    n.sum_rem += r.sum_rem;
    n.sum_frac += r.sum_frac;
  }
}

void DispatchIndex::split(Ref t, const SjfKey& key, Ref& left, Ref& right) {
  if (t == kNil) {
    left = kNil;
    right = kNil;
    return;
  }
  Node& n = pool_->node(t);
  if (n.key < key) {
    left = t;
    split(n.right, key, pool_->node(t).right, right);
  } else {
    right = t;
    split(n.left, key, left, pool_->node(t).left);
  }
  pull(t);
}

DispatchIndex::Ref DispatchIndex::merge(Ref left, Ref right) {
  if (left == kNil) return right;
  if (right == kNil) return left;
  if (pool_->node(left).prio >= pool_->node(right).prio) {
    pool_->node(left).right = merge(pool_->node(left).right, right);
    pull(left);
    return left;
  }
  pool_->node(right).left = merge(left, pool_->node(right).left);
  pull(right);
  return right;
}

void DispatchIndex::insert(const SjfKey& key, double remaining) {
  // The alloc may be the pool's first touch (lazy private pool) and may
  // reallocate the node vector, so it happens before any refs are taken.
  const Ref fresh = alloc(key, remaining);
  Ref left = kNil;
  Ref right = kNil;
  split(root_, key, left, right);
  // The key must be new: the smallest entry of `right`, if any, differs.
  root_ = merge(merge(left, fresh), right);
  min_size_ = std::min(min_size_, key.size);
  if (max_ == kNil || pool_->node(max_).key < key) max_ = fresh;
  table_fresh_ = false;
}

DispatchIndex::Ref DispatchIndex::erase_rec(Ref t, const SjfKey& key,
                                            Ref& gone) {
  if (t == kNil) return kNil;
  Node& n = pool_->node(t);
  if (key == n.key) {
    gone = t;
    return merge(n.left, n.right);
  }
  if (key < n.key)
    n.left = erase_rec(n.left, key, gone);
  else
    n.right = erase_rec(n.right, key, gone);
  pull(t);
  return t;
}

void DispatchIndex::erase(const SjfKey& key) {
  const bool erased = erase_if_present(key);
  TS_CHECK(erased, "dispatch index: erase of a missing key");
}

bool DispatchIndex::erase_if_present(const SjfKey& key) {
  Ref gone = kNil;
  root_ = erase_rec(root_, key, gone);
  if (gone == kNil) return false;
  pool_->free(gone);
  table_fresh_ = false;
  if (key.size == min_size_) {
    // The minimum may have left: re-read it from the end of the left spine.
    min_size_ = std::numeric_limits<double>::infinity();
    for (Ref t = root_; t != kNil; t = pool_->node(t).left)
      min_size_ = pool_->node(t).key.size;
  }
  if (gone == max_) {
    // The maximum left: re-read it from the end of the right spine.
    max_ = kNil;
    for (Ref t = root_; t != kNil; t = pool_->node(t).right) max_ = t;
  }
  return true;
}

bool DispatchIndex::update_rec(Ref t, const SjfKey& key, double remaining) {
  if (t == kNil) return false;
  Node& n = pool_->node(t);
  bool found;
  if (key == n.key) {
    n.rem = remaining;
    n.frac = remaining / key.size;
    found = true;
  } else {
    found = update_rec(key < n.key ? n.left : n.right, key, remaining);
  }
  if (found) pull(t);
  return found;
}

void DispatchIndex::update(const SjfKey& key, double remaining) {
  const bool found = update_rec(root_, key, remaining);
  TS_CHECK(found, "dispatch index: update of a missing key");
  table_fresh_ = false;
}

double DispatchIndex::remaining_before(const SjfKey& key) const {
  double acc = 0.0;
  Ref t = root_;
  while (t != kNil) {
    const Node& n = pool_->node(t);
    if (n.key < key) {
      if (n.left != kNil) acc += pool_->node(n.left).sum_rem;
      acc += n.rem;
      t = n.right;
    } else {
      t = n.left;
    }
  }
  return acc;
}

int DispatchIndex::count_size_greater(double size) const {
  int acc = 0;
  Ref t = root_;
  while (t != kNil) {
    const Node& n = pool_->node(t);
    if (n.key.size > size) {
      // Everything right of n is lexicographically larger, hence has size
      // >= n.key.size > size.
      acc += 1;
      if (n.right != kNil) acc += pool_->node(n.right).cnt;
      t = n.left;
    } else {
      // Everything left of n has size <= n.key.size <= size.
      t = n.right;
    }
  }
  return acc;
}

void DispatchIndex::fill_table(Ref t, double acc, TreapPool::RankTable& tab,
                               int& rank) const {
  // A candidate between two entries descends left past every later entry
  // (adding nothing) and right past every earlier one (adding the left
  // subtree's sum, then the entry's own). So the gaps of t's left subtree
  // see acc unchanged, and the gaps after each entry on t's right spine see
  // acc grown by exactly those two additions.
  for (; t != kNil; t = pool_->node(t).right) {
    const Node& n = pool_->node(t);
    fill_table(n.left, acc, tab, rank);
    const auto r = uidx(rank);
    tab.size[r] = n.key.size;
    tab.release[r] = n.key.release;
    tab.job[r] = n.key.job;
    // treesched-lint: allow(inv-fp-accum): these are the descent's own
    // additions in its order; the table must be bit-equal to it.
    if (n.left != kNil) acc += pool_->node(n.left).sum_rem;
    acc += n.rem;  // treesched-lint: allow(inv-fp-accum): as above.
    ++rank;
  }
  tab.before[uidx(rank)] = acc;
}

void DispatchIndex::build_table() const {
  if (table_ == kNil) table_ = pool_->alloc_table();
  TreapPool::RankTable& tab = pool_->table(table_);
  int rank = 0;
  fill_table(root_, 0.0, tab, rank);
  for (; rank % 4 != 0; ++rank)
    tab.size[uidx(rank)] = std::numeric_limits<double>::infinity();
  table_fresh_ = true;
}

double DispatchIndex::fraction_size_greater(double size) const {
  double acc = 0.0;
  Ref t = root_;
  while (t != kNil) {
    const Node& n = pool_->node(t);
    if (n.key.size > size) {
      acc += n.frac;
      if (n.right != kNil) acc += pool_->node(n.right).sum_frac;
      t = n.left;
    } else {
      t = n.right;
    }
  }
  return acc;
}

}  // namespace treesched::sim
