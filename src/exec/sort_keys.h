// Runtime sort-key kernel shared by the order enforcers (Sort, partial
// Sort, TopK) and the merging Exchange. Each sort key of a row is encoded
// into one order-preserving uint64_t word, so ordering a row set becomes
// integer compares and byte-wise radix passes instead of Value::Compare
// calls over materialized key vectors.
//
// The encoding reproduces Value::Compare exactly on numbers: ints and
// doubles both go through double (as Compare's num() does, so ints beyond
// 2^53 that round to the same double tie), -0.0 is folded into +0.0, a
// null encodes as its num() value (0.0), and a DESC key inverts every bit.
// Strings and NaN have no such word — a row holding one is reported
// inexact, and every comparison touching it falls back to Value::Compare
// over the row's own slots. See DESIGN "Order as a physical property".
#ifndef OODB_EXEC_SORT_KEYS_H_
#define OODB_EXEC_SORT_KEYS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/exec/tuple.h"
#include "src/physical/phys_props.h"

namespace oodb {

/// One row as the comparators see it: its encoded key words, whether the
/// encoding is exact, and the row itself (for the Value::Compare fallback).
struct EncodedRow {
  const uint64_t* keys = nullptr;
  bool exact = true;
  TupleRef row;
};

class SortKeyCodec {
 public:
  explicit SortKeyCodec(std::vector<SortKey> keys) : keys_(std::move(keys)) {}

  /// Number of key words per row.
  size_t size() const { return keys_.size(); }

  /// Encodes every key of `row` into out[0, size()). Returns whether the
  /// encoding is exact (false: some key is a string or NaN). Fails with the
  /// same kInternal status as EvalExpr when a key's component is not
  /// loaded, checking keys in order.
  Result<bool> Encode(TupleRef row, const QueryContext& ctx,
                      uint64_t* out) const;

  /// Three-way order of two rows on keys [from, to): the first non-zero
  /// Value::Compare, negated for DESC keys. Both rows must have been
  /// Encode()d successfully (their key components are loaded).
  int CompareRows(TupleRef a, TupleRef b, size_t from, size_t to) const;

  /// CompareRows, answered from the key words when both rows are exact.
  int Compare(const EncodedRow& a, const EncodedRow& b, size_t from,
              size_t to) const {
    if (a.exact && b.exact) {
      for (size_t i = from; i < to; ++i) {
        if (a.keys[i] != b.keys[i]) return a.keys[i] < b.keys[i] ? -1 : 1;
      }
      return 0;
    }
    return CompareRows(a.row, b.row, from, to);
  }

 private:
  std::vector<SortKey> keys_;
};

/// Stable LSD radix sort of the row ids rows[0, n) on key words
/// [from, stride) of `keys`, where row r's words are
/// keys[r*stride, (r+1)*stride). Byte passes on which every row agrees are
/// skipped. Equal keys keep their input order, so sorting rows in arrival
/// order reproduces std::stable_sort over the same keys. `scratch` is
/// reused across calls.
void RadixSortRows(const uint64_t* keys, size_t stride, size_t from,
                   uint32_t* rows, size_t n, std::vector<uint32_t>* scratch);

}  // namespace oodb

#endif  // OODB_EXEC_SORT_KEYS_H_
