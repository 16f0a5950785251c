#include "src/exec/sort_keys.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace oodb {

namespace {

constexpr uint64_t kSignBit = uint64_t{1} << 63;

/// Order-preserving image of a double: flipping the sign bit of
/// non-negatives and every bit of negatives makes unsigned integer order
/// equal numeric order. -0.0 is folded into +0.0 first, since Compare
/// treats them as equal.
uint64_t EncodeDouble(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return (u & kSignBit) != 0 ? ~u : (u | kSignBit);
}

}  // namespace

Result<bool> SortKeyCodec::Encode(TupleRef row, const QueryContext& ctx,
                                  uint64_t* out) const {
  bool exact = true;
  for (size_t i = 0; i < keys_.size(); ++i) {
    const SortKey& k = keys_[i];
    const Slot& s = row.slot(k.binding);
    if (!s.loaded()) {
      return Status::Internal(
          "attribute read on component not present in memory: " +
          ctx.bindings.def(k.binding).name);
    }
    const Value& v = s.obj->value(k.field);
    // Value::Compare's num(): ints through double, everything else
    // (doubles and nulls) through the d member.
    double d = v.kind == Value::Kind::kInt ? static_cast<double>(v.i) : v.d;
    if (v.kind == Value::Kind::kString || std::isnan(d)) {
      exact = false;
      out[i] = 0;
      continue;
    }
    uint64_t word = EncodeDouble(d);
    out[i] = k.desc ? ~word : word;
  }
  return exact;
}

int SortKeyCodec::CompareRows(TupleRef a, TupleRef b, size_t from,
                              size_t to) const {
  for (size_t i = from; i < to; ++i) {
    const SortKey& k = keys_[i];
    int c = a.slot(k.binding).obj->value(k.field).Compare(
        b.slot(k.binding).obj->value(k.field));
    if (c != 0) return k.desc ? -c : c;
  }
  return 0;
}

void RadixSortRows(const uint64_t* keys, size_t stride, size_t from,
                   uint32_t* rows, size_t n, std::vector<uint32_t>* scratch) {
  if (n < 2 || from >= stride) return;
  auto word = [&](uint32_t r, size_t w) { return keys[r * stride + w]; };
  // One pass over the rows finds the bytes that vary and histograms them;
  // histograms do not depend on row order, so the scatter passes below
  // are the only ones that chase the permutation.
  struct Pass {
    size_t word;
    unsigned shift;
  };
  std::vector<Pass> passes;
  for (size_t w = stride; w-- > from;) {
    const uint64_t first = word(rows[0], w);
    uint64_t varying = 0;
    for (size_t i = 1; i < n; ++i) varying |= word(rows[i], w) ^ first;
    for (unsigned shift = 0; shift < 64; shift += 8) {
      if (((varying >> shift) & 0xff) != 0) passes.push_back({w, shift});
    }
  }
  if (passes.empty()) return;
  scratch->assign(n + passes.size() * 256, 0);
  uint32_t* src = rows;
  uint32_t* dst = scratch->data();
  uint32_t* counts = scratch->data() + n;
  for (size_t i = 0; i < n; ++i) {
    for (size_t p = 0; p < passes.size(); ++p) {
      ++counts[p * 256 + ((word(rows[i], passes[p].word) >> passes[p].shift) &
                          0xff)];
    }
  }
  // Least significant word first; within a word, least significant byte
  // first. Each pass is a stable counting sort, so the final order is
  // lexicographic on the words with ties in input order.
  for (size_t p = 0; p < passes.size(); ++p) {
    uint32_t* bucket = counts + p * 256;
    uint32_t sum = 0;
    for (size_t b = 0; b < 256; ++b) {
      uint32_t here = bucket[b];
      bucket[b] = sum;
      sum += here;
    }
    const size_t w = passes[p].word;
    const unsigned shift = passes[p].shift;
    for (size_t i = 0; i < n; ++i) {
      uint32_t r = src[i];
      dst[bucket[(word(r, w) >> shift) & 0xff]++] = r;
    }
    std::swap(src, dst);
  }
  if (src != rows) std::copy(src, src + n, rows);
}

}  // namespace oodb
