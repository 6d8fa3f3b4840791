#include "runtime/compiled_executor.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "obs/metrics.h"
#include "util/check.h"

namespace ringdb {
namespace runtime {

namespace lower = compiler::lower;

namespace {

// The emitted preamble (compiler/codegen_c.cc) carries its own textual
// copy of these structs; the load-time rdb_abi_layout handshake keeps the
// two in sync, and this keeps the host honest about its own header.
static_assert(RdbAbiLayout() ==
              sizeof(RdbVal) * 1000000u + offsetof(RdbVal, kind) * 10000u +
                  sizeof(RdbNum) * 100u + offsetof(RdbNum, is_int));

inline RdbVal ToRdbVal(const Value& v) {
  RdbVal r{};
  switch (v.kind()) {
    case Value::Kind::kInt:
      r.kind = 0;
      r.i = v.AsInt();
      break;
    case Value::Kind::kDouble:
      r.kind = 1;
      r.d = v.AsDouble();
      break;
    case Value::Kind::kString: {
      const std::string& s = v.AsString();
      r.kind = 2;
      r.s = s.data();
      r.slen = s.size();
      break;
    }
  }
  return r;
}

inline Value ToValue(const RdbVal& v) {
  switch (v.kind) {
    case 0:
      return Value(v.i);
    case 1:
      return Value(v.d);
    default:
      return Value(std::string(v.s, static_cast<size_t>(v.slen)));
  }
}

inline RdbNum ToRdbNum(Numeric n) {
  RdbNum r{};
  if (n.is_integer()) {
    r.is_int = 1;
    r.i = n.AsInt();
  } else {
    r.is_int = 0;
    r.d = n.AsDouble();
  }
  return r;
}

inline Numeric ToNumeric(RdbNum n) {
  return n.is_int ? Numeric(n.i) : Numeric(n.d);
}

}  // namespace

CompiledExecutor::CompiledExecutor(compiler::TriggerProgram program,
                                   std::shared_ptr<const NativeModule> module)
    : Executor(std::move(program)), module_(std::move(module)) {
  for (size_t t = 0; t < lowered_->stmts.size(); ++t) {
    for (size_t s = 0; s < lowered_->stmts[t].size(); ++s) {
      const NativeModule::StmtFns& fns = module_->fns(t, s);
      if (fns.col_plain == nullptr) continue;
      Fns f;
      f.plain = fns.col_plain;
      f.grouped = fns.col_grouped;
#ifdef RINGDB_NO_METRICS
      // No clock to profile with: the first window locks the emitter's
      // static cost-model preference.
      f.plain_profile.start_mode = fns.prefer_native ? 1 : 0;
      f.grouped_profile.start_mode = fns.grouped_prefer_native ? 1 : 0;
#endif
      fns_.emplace(&lowered_->stmts[t][s], f);
    }
  }
  const size_t depths = std::max<size_t>(lowered_->max_loop_depth, 1);
  entry_scratch_.resize(depths);
  subkey_scratch_.resize(depths);
}

void CompiledExecutor::CollectDispatch(std::vector<StmtDispatch>* out) const {
  out->assign(lowered_->num_statements, StmtDispatch{});
  for (const auto& [sp, f] : fns_) {
    StmtDispatch& d = (*out)[sp->stmt_id];
    d.native_available = true;
    d.grouped_available = f.grouped != nullptr;
    d.window_available = true;
    d.win_plain_mode = f.plain_profile.mode;
    d.win_grouped_mode = f.grouped != nullptr ? f.grouped_profile.mode : 0;
    d.profile_native_ns =
        f.plain_profile.native_ns + f.grouped_profile.native_ns;
    d.profile_interp_ns =
        f.plain_profile.interp_ns + f.grouped_profile.interp_ns;
  }
}

uint32_t CompiledExecutor::window_dispatch_mode() const {
  bool native = false;
  bool profiling = false;
  for (const auto& [sp, f] : fns_) {
    for (const WindowProfile* prof : {&f.plain_profile, &f.grouped_profile}) {
      native = native || prof->mode == 1;
      profiling = profiling || prof->mode == 2;
    }
  }
  if (native) return 2;
  if (profiling) return 3;
  return Executor::window_dispatch_mode();
}

const RdbHostApi& CompiledExecutor::HostApi() {
  static const RdbHostApi kApi = {
      RDB_ABI_VERSION,
      &CompiledExecutor::Probe,
      &CompiledExecutor::Foreach,
      &CompiledExecutor::ForeachMatching,
      &CompiledExecutor::Fail,
      &CompiledExecutor::AddSpan,
  };
  return kApi;
}

void CompiledExecutor::RunStatementWindow(const lower::StmtProgram& sp,
                                          const ColWindow& win,
                                          const lower::RhsProgram& rhs) {
  const auto it = fns_.find(&sp);
  Fns* f = it != fns_.end() ? &it->second : nullptr;
  // The grouped rhs is a distinct RhsProgram object even when it shares
  // the plain ops, so the address identifies the variant.
  const bool is_grouped = (&rhs != &sp.rhs);
  const RdbColStmtFn fn =
      f != nullptr ? (is_grouped ? f->grouped : f->plain) : nullptr;
  if (fn == nullptr) {
    // Not emitted (lazy domain or self-reading): the base gather loop
    // interprets each firing.
    Executor::RunStatementWindow(sp, win, rhs);
    return;
  }
  WindowProfile& prof = is_grouped ? f->grouped_profile : f->plain_profile;
  if (prof.mode == 3) prof.mode = prof.start_mode;  // first window
  switch (prof.mode) {
    case 1:  // locked native window
      RunNativeWindow(fn, sp, win);
      return;
    case 0:  // locked interpreter
      Executor::RunStatementWindow(sp, win, rhs);
      return;
    default:
      break;  // profiling
  }
  // Warmup: alternate whole windows between the native window call and
  // the interpreter's gather loop, then lock whichever measured cheaper
  // *per row* — windows vary in width, so the comparison cross-multiplies
  // ns by the other side's row units. Ties go native.
  const bool run_native = prof.native_runs <= prof.interp_runs;
  const uint64_t t0 = obs::NowNs();
  if (run_native) {
    RunNativeWindow(fn, sp, win);
  } else {
    Executor::RunStatementWindow(sp, win, rhs);
  }
  const uint64_t dt = obs::NowNs() - t0;
  // Each side's first window is discarded from the totals (still counted
  // as a run): it pays one-off costs — first mirror-column conversion,
  // module page-in, cold view tables — that would otherwise decide the
  // lock off one outlier sample.
  if (run_native) {
    if (prof.native_runs > 0) {
      prof.native_ns += dt;
      prof.native_units += win.n;
    }
    ++prof.native_runs;
  } else {
    if (prof.interp_runs > 0) {
      prof.interp_ns += dt;
      prof.interp_units += win.n;
    }
    ++prof.interp_runs;
  }
  if (prof.native_runs >= kWarmupRuns && prof.interp_runs >= kWarmupRuns) {
    prof.mode = (prof.native_ns * prof.interp_units <=
                 prof.interp_ns * prof.native_units)
                    ? 1
                    : 0;
  }
}

void CompiledExecutor::RunNativeWindow(RdbColStmtFn fn,
                                       const lower::StmtProgram& sp,
                                       const ColWindow& win) {
  RINGDB_OBS(cur_counters_ = &stmt_counters_[sp.stmt_id]);
  RINGDB_OBS(cur_counters_->native_calls += win.n);
  // Mirror the delta's columns into RdbVal arrays, converting each column
  // at most once per delta (the epoch identifies the column arrays across
  // every statement window cut from the same delta). Only the columns
  // this statement reads are converted; the rest stay null.
  if (win.epoch != mirror_epoch_) {
    mirror_epoch_ = win.epoch;
    mirror_cols_.resize(win.arity);
    mirror_ptrs_.assign(win.arity, nullptr);
  }
  for (uint16_t c : sp.cols_read) {
    if (mirror_ptrs_[c] != nullptr) continue;
    std::vector<RdbVal>& col = mirror_cols_[c];
    col.resize(win.col_len);
    const std::vector<Value>& src = win.cols[c];
    for (size_t i = 0; i < win.col_len; ++i) col[i] = ToRdbVal(src[i]);
    mirror_ptrs_[c] = col.data();
  }
  win_scale_scratch_.resize(win.n);
  for (size_t i = 0; i < win.n; ++i) {
    win_scale_scratch_[i] = ToRdbNum(win.scales[i]);
  }
  RdbColWin w;
  w.cols = mirror_ptrs_.data();
  w.rows = win.rows;
  w.scales = win_scale_scratch_.data();
  w.n = static_cast<uint32_t>(win.n);
  w.arity = win.arity;
  depth_ = 0;
  // Windows exist only for direct-add statements: every emission lands
  // through add_span before the call returns, so there is nothing to
  // flush.
  fn(&HostApi(), this, &w);
}

RdbNum CompiledExecutor::Probe(void* ctx, int32_t view_id, const RdbVal* key,
                               uint32_t n) {
  auto* self = static_cast<CompiledExecutor*>(ctx);
  RINGDB_OBS(++self->cur_counters_->probes);
  Key& k = self->probe_scratch_;
  k.resize(n);
  for (uint32_t i = 0; i < n; ++i) k[i] = ToValue(key[i]);
  return ToRdbNum(self->views_[static_cast<size_t>(view_id)].At(k));
}

void CompiledExecutor::Foreach(void* ctx, int32_t view_id, RdbLoopFn fn,
                               void* env) {
  auto* self = static_cast<CompiledExecutor*>(ctx);
  const size_t d = self->depth_++;
  const ViewTable& table = self->views_[static_cast<size_t>(view_id)];
  std::vector<RdbVal>& kbuf = self->entry_scratch_[d];
  kbuf.resize(table.arity());
  table.ForEach([&](KeyView key, Numeric m) {
    RINGDB_OBS(++self->cur_counters_->loop_iterations);
    for (size_t i = 0; i < key.size(); ++i) kbuf[i] = ToRdbVal(key[i]);
    fn(env, kbuf.data(), ToRdbNum(m));
  });
  --self->depth_;
}

void CompiledExecutor::ForeachMatching(void* ctx, int32_t view_id,
                                       int32_t index_id,
                                       const RdbVal* subkey, uint32_t n,
                                       RdbLoopFn fn, void* env) {
  auto* self = static_cast<CompiledExecutor*>(ctx);
  const size_t d = self->depth_++;
  const ViewTable& table = self->views_[static_cast<size_t>(view_id)];
  Key& sk = self->subkey_scratch_[d];
  sk.resize(n);
  for (uint32_t i = 0; i < n; ++i) sk[i] = ToValue(subkey[i]);
  std::vector<RdbVal>& kbuf = self->entry_scratch_[d];
  kbuf.resize(table.arity());
  table.ForEachMatching(index_id, sk, [&](KeyView key, Numeric m) {
    RINGDB_OBS(++self->cur_counters_->loop_iterations);
    for (size_t i = 0; i < key.size(); ++i) kbuf[i] = ToRdbVal(key[i]);
    fn(env, kbuf.data(), ToRdbNum(m));
  });
  --self->depth_;
}

void CompiledExecutor::AddSpan(void* ctx, int32_t view_id, const RdbVal* keys,
                               const RdbNum* deltas, uint32_t count,
                               uint32_t arity) {
  auto* self = static_cast<CompiledExecutor*>(ctx);
  RINGDB_OBS(self->cur_counters_->emissions += count);
  // One emission's worth of accounting per spanned key, exactly like the
  // interpreter's FlushEmissions (the chunking must not change counters).
  std::vector<Value>& kb = self->span_keys_scratch_;
  std::vector<Numeric>& vb = self->span_deltas_scratch_;
  const size_t nk = static_cast<size_t>(count) * arity;
  kb.resize(nk);
  for (size_t i = 0; i < nk; ++i) kb[i] = ToValue(keys[i]);
  vb.resize(count);
  for (uint32_t i = 0; i < count; ++i) vb[i] = ToNumeric(deltas[i]);
  self->views_[static_cast<size_t>(view_id)].AddSpan(kb.data(), vb.data(),
                                                     count);
  self->stats_.entries_touched += count;
  self->stats_.arithmetic_ops += count;  // the += per spanned key
}

size_t CompiledExecutor::ApproxBytes() const {
  size_t bytes = Executor::ApproxBytes();
  // Native conversion scratch: entry marshalling plus the columnar
  // window buffers (mirror columns, scale column, span buffers).
  for (const std::vector<RdbVal>& v : entry_scratch_) {
    bytes += v.capacity() * sizeof(RdbVal);
  }
  for (const std::vector<RdbVal>& v : mirror_cols_) {
    bytes += v.capacity() * sizeof(RdbVal);
  }
  bytes += mirror_ptrs_.capacity() * sizeof(const RdbVal*);
  bytes += win_scale_scratch_.capacity() * sizeof(RdbNum);
  bytes += span_keys_scratch_.capacity() * sizeof(Value);
  bytes += span_deltas_scratch_.capacity() * sizeof(Numeric);
  return bytes;
}

void CompiledExecutor::Fail(void* ctx, const char* msg) {
  // The native analogue of RINGDB_CHECK: invariant violations inside a
  // module (a string flowing into arithmetic) must die loudly, exactly
  // like the interpreter's paths.
  (void)ctx;
  std::fprintf(stderr, "native trigger module CHECK failed: %s\n", msg);
  std::abort();
}

}  // namespace runtime
}  // namespace ringdb
