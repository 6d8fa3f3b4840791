// The C ABI between the host runtime and natively compiled trigger
// modules (compiler/codegen_c.{h,cc} emits the module side).
//
// A compiled module is a self-contained C translation unit: it receives
// every service it needs — view probes, index-driven loop enumeration,
// batched emission — as a table of function pointers (RdbHostApi) passed
// into each columnar-window entry point, so the .so links against
// nothing and the host needs no -rdynamic. Values cross the boundary as
// RdbVal (a flattened util/value.h Value: tagged int64/double/string-
// view) and scalars as RdbNum (a flattened util/numeric.h Numeric).
// String payloads are borrowed pointers into host-owned storage (the
// mirrored delta columns, constant pools, view entry keys); they stay
// valid for the duration of one window call because the only mutation a
// module performs is add_span into the statement's target view, which no
// rhs of the statement reads (windows are emitted only for such direct-
// add statements, and lazy-domain statements are not emitted at all).
//
// The emitted preamble (codegen_c.cc) textually duplicates these
// definitions so the module compiles standalone; RDB_ABI_VERSION and the
// RdbAbiLayout() checksum exported by every module guard against the two
// copies drifting apart — NativeModule refuses to load on mismatch.

#ifndef RINGDB_RUNTIME_NATIVE_ABI_H_
#define RINGDB_RUNTIME_NATIVE_ABI_H_

#include <cstddef>
#include <cstdint>

namespace ringdb {
namespace runtime {

extern "C" {

// Bumped whenever a struct layout or host-api slot changes.
// v3: columnar windows — RdbColWin, the RdbColStmtFn entry-point shape,
// and the add_span host slot.
// v4: the per-firing entry points and their emit/add slots are gone, so
// fail and add_span move up two slots.
enum : uint32_t { RDB_ABI_VERSION = 4 };

// A flattened Value: kind 0 = int64 (payload i), 1 = double (payload d),
// 2 = string (payload s/slen, NOT NUL-terminated, borrowed).
typedef struct RdbVal {
  int64_t i;
  double d;
  const char* s;
  uint64_t slen;
  uint8_t kind;
} RdbVal;

// A flattened Numeric: exact int64 while is_int, double otherwise.
typedef struct RdbNum {
  int64_t i;
  double d;
  uint8_t is_int;
} RdbNum;

// Loop-body callback: `key` is the enumerated entry's full key (arity
// values, valid only during the call), `mult` its multiplicity.
typedef void (*RdbLoopFn)(void* env, const RdbVal* key, RdbNum mult);

// Host services available to a statement function. `ctx` is the opaque
// executor handle threaded through every call.
typedef struct RdbHostApi {
  uint32_t abi_version;
  // O(1) view lookup (ViewTable::At); the key is the view's full key.
  RdbNum (*probe)(void* ctx, int32_t view_id, const RdbVal* key,
                  uint32_t n);
  // Full-scan enumeration of a view's live entries.
  void (*foreach)(void* ctx, int32_t view_id, RdbLoopFn fn, void* env);
  // Index-driven enumeration: entries whose key matches `subkey` at the
  // index's positions (ViewTable::ForEachMatching).
  void (*foreach_matching)(void* ctx, int32_t view_id, int32_t index_id,
                           const RdbVal* subkey, uint32_t n, RdbLoopFn fn,
                           void* env);
  // Aborts with a diagnostic (the RINGDB_CHECK analogue; never returns).
  void (*fail)(void* ctx, const char* msg);
  // Batched immediate emission: view[keys + j*arity .. +arity) += deltas[j]
  // for j in [0, count), applied in place (scales already folded in).
  // Window entry points accumulate chunks of scaled (key, delta) pairs
  // locally and flush them through one host call, which hashes all keys
  // up front (ViewTable::AddSpan). Zero deltas are skipped by the host.
  // Sound only when the statement's rhs provably never reads `view_id` —
  // the emitter checks the loop drivers and probe plans statically and
  // emits no window otherwise.
  void (*add_span)(void* ctx, int32_t view_id, const RdbVal* keys,
                   const RdbNum* deltas, uint32_t count, uint32_t arity);
} RdbHostApi;

// A columnar execution window: n statement firings reading row ids out of
// dense per-attribute columns. cols[c] points at the full mirrored column
// of the relation delta (host-converted RdbVal arrays, shared across every
// statement window cut from the same delta); firing j reads its params as
// cols[c][rows[j]] and scales its emissions by scales[j].
typedef struct RdbColWin {
  const RdbVal* const* cols;
  const uint32_t* rows;
  const RdbNum* scales;
  uint32_t n;
  uint32_t arity;
} RdbColWin;

// The native entry point of one statement, and the only one a module
// exports (`rdb_t<T>_s<S>_w`, and `_gw` for the grouped rhs): runs the
// whole window's firings in one native call, indexing columns directly —
// no per-firing host dispatch. The per-firing scale is folded in by the
// emitting code (windows are only emitted for direct-add statements, so
// there is no host-side flush to apply it).
typedef void (*RdbColStmtFn)(const RdbHostApi* api, void* ctx,
                             const RdbColWin* win);

}  // extern "C"

// Host-side layout checksum; every emitted module exports
// `uint64_t rdb_abi_layout` computed by the same formula from its own
// textual copy of the structs. Loading compares the two.
constexpr uint64_t RdbAbiLayout() {
  return static_cast<uint64_t>(sizeof(RdbVal)) * 1000000u +
         offsetof(RdbVal, kind) * 10000u + sizeof(RdbNum) * 100u +
         offsetof(RdbNum, is_int);
}

}  // namespace runtime
}  // namespace ringdb

#endif  // RINGDB_RUNTIME_NATIVE_ABI_H_
