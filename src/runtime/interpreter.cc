#include "runtime/interpreter.h"

#include <algorithm>

#include "agca/eval.h"
#include "util/check.h"
#include "util/hash.h"

namespace ringdb {
namespace runtime {

namespace lower = compiler::lower;

Executor::Executor(compiler::TriggerProgram program)
    : program_(std::move(program)), base_db_(program_.catalog) {
  // Single-shard construction lowers here; the sharded executor lowers
  // once and shares the result across shards.
  if (program_.lowered == nullptr) {
    program_.lowered = lower::Lower(program_);
  }
  lowered_ = program_.lowered;

  views_.reserve(program_.views.size());
  slices_.resize(program_.views.size());
  for (const compiler::ViewDef& v : program_.views) {
    views_.emplace_back(v.key_vars.size());
    if (v.lazy_init) has_lazy_views_ = true;
  }
  // Replay the lowering pass's index registrations; EnsureIndex
  // deduplicates identically, so the assigned ids match the
  // LoopProgram::index_id values baked into the bytecode.
  for (size_t v = 0; v < views_.size(); ++v) {
    int expected = 0;
    for (const std::vector<size_t>& positions :
         lowered_->view_indexes[v].position_sets) {
      RINGDB_CHECK_EQ(views_[v].EnsureIndex(positions), expected);
      ++expected;
    }
  }
  // Flat (relation, sign) -> trigger map over the program's own
  // relation-id span.
  if (!program_.triggers.empty()) {
    uint32_t min_rel = UINT32_MAX;
    uint32_t max_rel = 0;
    for (const compiler::Trigger& t : program_.triggers) {
      min_rel = std::min(min_rel, t.relation.id());
      max_rel = std::max(max_rel, t.relation.id());
    }
    trigger_base_ = min_rel;
    trigger_lookup_.assign(
        2 * (static_cast<size_t>(max_rel - min_rel) + 1), -1);
    for (size_t t = 0; t < program_.triggers.size(); ++t) {
      const compiler::Trigger& trigger = program_.triggers[t];
      const size_t idx =
          static_cast<size_t>(trigger.relation.id() - trigger_base_) * 2 +
          (trigger.sign == ring::Update::Sign::kDelete ? 1 : 0);
      trigger_lookup_[idx] = static_cast<int32_t>(t);
    }
  }
  // Execution scratch, sized to the program's maxima once.
  frame_.resize(lowered_->max_frame);
  stack_.resize(std::max<uint32_t>(lowered_->max_stack, 1));
  loop_values_.resize(lowered_->max_loop_depth);
  loop_key_scratch_.resize(lowered_->max_loop_depth);
  stmt_counters_.resize(std::max<uint32_t>(lowered_->num_statements, 1));
  cur_counters_ = stmt_counters_.data();
}

Status Executor::ApplyDelta(Symbol relation, const std::vector<Value>& values,
                            Numeric multiplicity) {
  if (multiplicity.IsZero()) return Status::Ok();
  if (!program_.catalog.Has(relation)) {
    return Status::NotFound("unknown relation " + relation.str());
  }
  if (program_.catalog.Arity(relation) != values.size()) {
    return Status::InvalidArgument(
        "arity mismatch in update of " + relation.str() + " (got " +
        std::to_string(values.size()) + " values)");
  }
  ApplyDeltaUnchecked(relation, values, multiplicity);
  return Status::Ok();
}

void Executor::ApplyDeltaUnchecked(Symbol relation,
                                   const std::vector<Value>& values,
                                   Numeric multiplicity) {
  // Batch deltas are sums of ±1 events, so net multiplicities are
  // integral; unit-firing fallback for nonlinear triggers needs a count.
  RINGDB_CHECK(multiplicity.is_integer());
  const int64_t m = multiplicity.AsInt();
  const uint64_t count = static_cast<uint64_t>(m > 0 ? m : -m);
  const ring::Update::Sign sign = m > 0 ? ring::Update::Sign::kInsert
                                        : ring::Update::Sign::kDelete;
  const Numeric unit = m > 0 ? kOne : Numeric(int64_t{-1});
  stats_.updates += count;
  ++stats_.delta_entries;
  const int t = FindTrigger(relation, sign);
  if (t < 0) {
    // Query-irrelevant relation: only the base database (if kept) moves.
    if (has_lazy_views_) base_db_.AddTuple(relation, values, multiplicity);
    return;
  }
  if (program_.triggers[static_cast<size_t>(t)].multiplicity_linear) {
    // Linear in the relation: the delta of `count` identical events is
    // count times the delta of one, so fire once with scaled emissions.
    if (count > 1) ++stats_.scaled_firings;
    FireTrigger(static_cast<size_t>(t), values.data(),
                Numeric(static_cast<int64_t>(count)));
    // The base database transitions to D + u only after the trigger ran:
    // deltas and lazy initializations both read the pre-update state.
    if (has_lazy_views_) base_db_.AddTuple(relation, values, multiplicity);
    return;
  }
  for (uint64_t i = 0; i < count; ++i) {
    FireTrigger(static_cast<size_t>(t), values.data(), kOne);
    if (has_lazy_views_) base_db_.AddTuple(relation, values, unit);
  }
}

Status Executor::ApplyDeltaColumns(const exec::RelationDelta& delta,
                                   const uint32_t* rows, size_t n) {
  if (rows == nullptr) n = delta.size();
  if (n == 0) return Status::Ok();
  if (!program_.catalog.Has(delta.relation)) {
    return Status::NotFound("unknown relation " + delta.relation.str());
  }
  if (program_.catalog.Arity(delta.relation) != delta.arity()) {
    return Status::InvalidArgument("arity mismatch in batch delta of " +
                                   delta.relation.str());
  }
  ++col_epoch_;
  // Split by sign (insert trigger for net-positive rows, delete trigger
  // for net-negative); each sign group runs as one sequential block, so
  // cross-relation read dependencies see a consistent prefix.
  sign_rows_[0].clear();
  sign_rows_[1].clear();
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = rows != nullptr ? rows[i] : static_cast<uint32_t>(i);
    const Numeric& m = delta.mults[r];
    if (m.IsZero()) continue;
    RINGDB_CHECK(m.is_integer());
    sign_rows_[m.AsInt() > 0 ? 0 : 1].push_back(r);
  }
  for (int s = 0; s < 2; ++s) {
    const std::vector<uint32_t>& group = sign_rows_[s];
    if (group.empty()) continue;
    const ring::Update::Sign sign = s == 0 ? ring::Update::Sign::kInsert
                                           : ring::Update::Sign::kDelete;
    const int t = FindTrigger(delta.relation, sign);
    const bool linear =
        t >= 0 &&
        program_.triggers[static_cast<size_t>(t)].multiplicity_linear &&
        group.size() > 1;
    if (linear) {
      for (const uint32_t r : group) {
        const int64_t m = delta.mults[r].AsInt();
        stats_.updates += static_cast<uint64_t>(m > 0 ? m : -m);
        ++stats_.delta_entries;
        if (m > 1 || m < -1) ++stats_.scaled_firings;
      }
      RunLinearTriggerColumns(static_cast<size_t>(t), delta, group.data(),
                              group.size());
      if (has_lazy_views_) {
        base_db_.Reserve(delta.relation, group.size());
        row_gather_.resize(delta.arity());
        for (const uint32_t r : group) {
          delta.GatherRow(r, row_gather_.data());
          base_db_.AddTuple(delta.relation, row_gather_, delta.mults[r]);
        }
      }
    } else {
      row_gather_.resize(delta.arity());
      for (const uint32_t r : group) {
        delta.GatherRow(r, row_gather_.data());
        ApplyDeltaUnchecked(delta.relation, row_gather_, delta.mults[r]);
      }
    }
  }
  return Status::Ok();
}

void Executor::RunLinearTriggerColumns(size_t trigger_idx,
                                       const exec::RelationDelta& delta,
                                       const uint32_t* rows, size_t n) {
  // Statement-major: linearity guarantees no statement reads anything
  // this trigger writes, so all firings of one statement see the same
  // state and merge freely. Shape keys hash straight out of the columns
  // and each statement fires as one window through RunStatementWindow.
  const std::vector<Value>* cols = delta.columns.data();
  const uint32_t arity = static_cast<uint32_t>(delta.arity());
  for (const lower::StmtProgram& sp : lowered_->stmts[trigger_idx]) {
    if (!sp.groupable) {
      win_rows_.assign(rows, rows + n);
      win_scales_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const int64_t m = delta.mults[rows[i]].AsInt();
        win_scales_[i] = Numeric(m > 0 ? m : -m);
      }
      stats_.statements_run += n;
      RINGDB_OBS(stmt_counters_[sp.stmt_id].invocations += n);
      const ColWindow win{cols,  win_rows_.data(), win_scales_.data(),
                          n,     arity,            delta.size(),
                          col_epoch_};
#ifndef RINGDB_NO_METRICS
      const uint64_t win_t0 = obs::NowNs();
#endif
      RunStatementWindow(sp, win, sp.rhs);
      RINGDB_OBS(stmt_counters_[sp.stmt_id].window_ns +=
                 obs::NowNs() - win_t0);
      continue;
    }
    // Accumulate one coefficient per distinct shape projection:
    // sum over rows of |multiplicity| * product(foldable params). The
    // open-addressing table keys on the shape columns in place.
    rep_rows_.clear();
    rep_coeffs_.clear();
    rep_hashes_.clear();
    size_t cap = group_slots_.empty() ? 16 : group_slots_.size();
    while (n * 4 > cap * 3) cap *= 2;
    group_slots_.assign(cap, UINT32_MAX);
    const size_t mask = cap - 1;
    for (size_t i = 0; i < n; ++i) {
      const uint32_t r = rows[i];
      uint64_t h = 0x51c9a7f0d3b86e25ULL;
      for (uint16_t p : sp.shape_params) {
        h = HashCombine(h, cols[p][r].Hash());
      }
      const int64_t m = delta.mults[r].AsInt();
      Numeric coeff(m > 0 ? m : -m);
      for (uint16_t p : sp.foldable_params) {
        auto num = cols[p][r].ToNumeric();
        RINGDB_CHECK(num.ok());
        coeff *= *num;
        ++stats_.arithmetic_ops;
      }
      size_t slot = h & mask;
      bool merged = false;
      while (group_slots_[slot] != UINT32_MAX) {
        const uint32_t g = group_slots_[slot];
        if (rep_hashes_[g] == h) {
          bool eq = true;
          for (uint16_t p : sp.shape_params) {
            if (!(cols[p][rep_rows_[g]] == cols[p][r])) {
              eq = false;
              break;
            }
          }
          if (eq) {
            rep_coeffs_[g] += coeff;
            ++stats_.arithmetic_ops;
            merged = true;
            break;
          }
        }
        slot = (slot + 1) & mask;
      }
      if (!merged) {
        group_slots_[slot] = static_cast<uint32_t>(rep_rows_.size());
        rep_rows_.push_back(r);
        rep_coeffs_.push_back(coeff);
        rep_hashes_.push_back(h);
      }
    }
    // Fire the survivors in first-touch order (zero coefficients are
    // skipped uncounted).
    win_rows_.clear();
    win_scales_.clear();
    for (size_t g = 0; g < rep_rows_.size(); ++g) {
      if (rep_coeffs_[g].IsZero()) continue;
      win_rows_.push_back(rep_rows_[g]);
      win_scales_.push_back(rep_coeffs_[g]);
    }
    if (win_rows_.empty()) continue;
    stats_.statements_run += win_rows_.size();
    RINGDB_OBS(stmt_counters_[sp.stmt_id].invocations += win_rows_.size());
    const ColWindow win{cols,
                        win_rows_.data(),
                        win_scales_.data(),
                        win_rows_.size(),
                        arity,
                        delta.size(),
                        col_epoch_};
#ifndef RINGDB_NO_METRICS
    const uint64_t win_t0 = obs::NowNs();
#endif
    RunStatementWindow(sp, win, sp.grouped_rhs);
    RINGDB_OBS(stmt_counters_[sp.stmt_id].window_ns +=
               obs::NowNs() - win_t0);
  }
}

void Executor::RunStatementWindow(const lower::StmtProgram& sp,
                                  const ColWindow& win,
                                  const lower::RhsProgram& rhs) {
  // Base implementation: gather each row's params and interpret the
  // firing, so an interpreter-only executor (and the compiled backend for
  // statements without a native window, or while its profiler runs the
  // interpreted side) executes windows row by row with unchanged
  // semantics and counters.
  param_gather_.resize(win.arity);
  for (size_t i = 0; i < win.n; ++i) {
    const uint32_t r = win.rows[i];
    for (uint32_t c = 0; c < win.arity; ++c) {
      param_gather_[c] = win.cols[c][r];
    }
    RunStatement(sp, param_gather_.data(), win.scales[i], rhs);
  }
}

void Executor::FireTrigger(size_t trigger_idx, const Value* params,
                           Numeric scale) {
  for (const lower::StmtProgram& sp : lowered_->stmts[trigger_idx]) {
    ++stats_.statements_run;
    RINGDB_OBS(++stmt_counters_[sp.stmt_id].invocations);
    RunStatement(sp, params, scale, sp.rhs);
  }
}

void Executor::ReserveForBatch(size_t additional) {
  for (ViewTable& v : views_) v.Reserve(v.size() + additional);
}

void Executor::RunStatement(const lower::StmtProgram& sp, const Value* params,
                            Numeric scale, const lower::RhsProgram& rhs) {
  RINGDB_OBS(cur_counters_ = &stmt_counters_[sp.stmt_id]);
  RINGDB_OBS(++cur_counters_->interp_calls);
  // Emissions are buffered and applied after all loops finish: a
  // statement may loop over its own target view (domain maintenance), and
  // mutating a view during enumeration would change what later iterations
  // observe.
  emission_keys_.clear();
  emission_values_.clear();
  RunLoops(sp, 0, params, rhs);
  FlushEmissions(sp, scale);
}

void Executor::FlushEmissions(const lower::StmtProgram& sp, Numeric scale) {
  const size_t count = emission_values_.size();
  if (count == 0) return;
  const bool scaled = !scale.IsOne();
  const size_t arity = sp.target_key.size;
  ViewTable& target = views_[static_cast<size_t>(sp.target_view)];
  if (scaled) {
    for (size_t i = 0; i < count; ++i) emission_values_[i] *= scale;
    stats_.arithmetic_ops += count;
  }
  if (sp.target_lazy) {
    // Lazy targets interleave slice initialization with each emission, so
    // they stay element-wise.
    for (size_t i = 0; i < count; ++i) {
      const Value* key = emission_keys_.data() + i * arity;
      slice_scratch_.resize(sp.target_slice_positions.size());
      for (size_t j = 0; j < sp.target_slice_positions.size(); ++j) {
        slice_scratch_[j] = key[sp.target_slice_positions[j]];
      }
      EnsureSlice(sp.target_view, slice_scratch_);
      target.Add(key, arity, emission_values_[i]);
    }
  } else {
    // The emission buffer is already a column span (flattened keys +
    // parallel deltas); apply it through the batched Add.
    target.AddSpan(emission_keys_.data(), emission_values_.data(), count);
  }
  stats_.entries_touched += count;
  stats_.arithmetic_ops += count;  // the += itself
}

bool Executor::BindLoop(const lower::LoopProgram& lp, const Value* key) {
  for (const lower::LoopBind& b : lp.binds) {
    if (b.is_filter) {
      // Positions that repeat an already-bound variable must agree.
      if (frame_[b.frame] != key[b.pos]) return false;
    } else {
      frame_[b.frame] = key[b.pos];
    }
  }
  return true;
}

void Executor::RunLoops(const lower::StmtProgram& sp, size_t loop_index,
                        const Value* params,
                        const lower::RhsProgram& rhs) {
  if (loop_index == sp.loops.size()) {
    Emit(sp, params, rhs);
    return;
  }
  const lower::LoopProgram& lp = sp.loops[loop_index];
  const ViewTable& driver = views_[static_cast<size_t>(lp.view_id)];

  if (lp.slice_domain) {
    // Enumerate the initialized slice subkeys; each binds the slice-
    // position loop variables (bound positions are outside the subkey).
    for (const Key& slice : slices_[static_cast<size_t>(lp.view_id)]) {
      RINGDB_OBS(++cur_counters_->loop_iterations);
      if (!BindLoop(lp, slice.data())) continue;
      loop_values_[loop_index] = kZero;
      RunLoops(sp, loop_index + 1, params, rhs);
    }
    return;
  }
  if (lp.lazy_driver) {
    // Case A: the bound positions cover the slice; materialize it before
    // enumerating so the index sees every entry.
    BuildKey(sp, lp.lazy_slice, params, &slice_scratch_);
    EnsureSlice(lp.view_id, slice_scratch_);
  }
  // The KeyView is only read before the recursion (binds copy the values
  // into frame slots), so writes to `driver` deeper in the loop nest —
  // lazy slice initialization, self-loop maintenance — cannot invalidate
  // it mid-use.
  auto body = [&](KeyView key, Numeric value) {
    RINGDB_OBS(++cur_counters_->loop_iterations);
    if (!BindLoop(lp, key.begin())) return;
    loop_values_[loop_index] = value;
    RunLoops(sp, loop_index + 1, params, rhs);
  };
  if (lp.index_id >= 0) {
    // The probe subkey must stay alive for the whole enumeration (the
    // index verifies candidates against it), so each loop depth owns a
    // scratch buffer.
    Key& subkey = loop_key_scratch_[loop_index];
    BuildKey(sp, lp.probe, params, &subkey);
    driver.ForEachMatching(lp.index_id, subkey, body);
  } else {
    driver.ForEach(body);
  }
}

void Executor::Emit(const lower::StmtProgram& sp, const Value* params,
                    const lower::RhsProgram& rhs) {
  Numeric value = EvalRhs(sp, rhs, params);
  if (value.IsZero()) return;
  RINGDB_OBS(++cur_counters_->emissions);
  const lower::SlotRef* refs = sp.slot_refs.data() + sp.target_key.first;
  for (size_t i = 0; i < sp.target_key.size; ++i) {
    emission_keys_.push_back(Resolve(sp, refs[i], params));
  }
  emission_values_.push_back(value);
}

Numeric Executor::AsNum(const Reg& r) const {
  if (r.ref == nullptr) return r.num;
  auto n = r.ref->ToNumeric();
  RINGDB_CHECK(n.ok());
  return *n;
}

Numeric Executor::EvalRhs(const lower::StmtProgram& sp,
                          const lower::RhsProgram& rhs, const Value* params) {
  Reg* stack = stack_.data();
  size_t top = 0;
  for (const lower::Op& op : rhs.ops) {
    switch (op.code) {
      case lower::OpCode::kLoadConst:
        stack[top++].ref = &sp.const_pool[op.a];
        break;
      case lower::OpCode::kLoadParam:
        stack[top++].ref = &params[op.a];
        break;
      case lower::OpCode::kLoadFrame:
        stack[top++].ref = &frame_[op.a];
        break;
      case lower::OpCode::kLoadLoopValue: {
        Reg& r = stack[top++];
        r.ref = nullptr;
        r.num = loop_values_[op.a];
        break;
      }
      case lower::OpCode::kProbeView: {
        const lower::ProbePlan& plan = sp.probes[op.a];
        RINGDB_OBS(++cur_counters_->probes);
        BuildKey(sp, plan.key, params, &probe_scratch_);
        Reg& r = stack[top++];
        r.ref = nullptr;
        r.num = ProbeView(plan, probe_scratch_);
        break;
      }
      case lower::OpCode::kAdd: {
        const size_t n = op.a;
        Numeric total = AsNum(stack[top - n]);
        for (size_t i = 1; i < n; ++i) {
          total += AsNum(stack[top - n + i]);
          ++stats_.arithmetic_ops;
        }
        top -= n;
        stack[top].ref = nullptr;
        stack[top].num = total;
        ++top;
        break;
      }
      case lower::OpCode::kMul: {
        const size_t n = op.a;
        Numeric total = AsNum(stack[top - n]);
        for (size_t i = 1; i < n; ++i) {
          total *= AsNum(stack[top - n + i]);
          ++stats_.arithmetic_ops;
        }
        top -= n;
        stack[top].ref = nullptr;
        stack[top].num = total;
        ++top;
        break;
      }
      case lower::OpCode::kCmp: {
        const Reg rr = stack[--top];
        const Reg lr = stack[--top];
        ++stats_.arithmetic_ops;
        const auto cop = static_cast<agca::CmpOp>(op.aux);
        bool holds = false;
        if (cop == agca::CmpOp::kEq || cop == agca::CmpOp::kNe) {
          // Kind-sensitive Value equality, like the tree walker's
          // EvalValue path; computed operands materialize transiently.
          bool eq;
          if (lr.ref != nullptr && rr.ref != nullptr) {
            eq = (*lr.ref == *rr.ref);
          } else {
            const Value lv = lr.ref != nullptr ? *lr.ref : Value(lr.num);
            const Value rv = rr.ref != nullptr ? *rr.ref : Value(rr.num);
            eq = (lv == rv);
          }
          holds = (cop == agca::CmpOp::kEq) ? eq : !eq;
        } else {
          const Numeric ln = AsNum(lr);
          const Numeric rn = AsNum(rr);
          switch (cop) {
            case agca::CmpOp::kLt: holds = ln < rn; break;
            case agca::CmpOp::kLe: holds = ln <= rn; break;
            case agca::CmpOp::kGt: holds = ln > rn; break;
            case agca::CmpOp::kGe: holds = ln >= rn; break;
            default: RINGDB_CHECK(false);
          }
        }
        Reg& out = stack[top++];
        out.ref = nullptr;
        out.num = holds ? kOne : kZero;
        break;
      }
    }
  }
  return AsNum(stack[0]);
}

Numeric Executor::ProbeView(const lower::ProbePlan& plan, const Key& key) {
  if (plan.lazy) {
    slice_scratch_.resize(plan.slice_positions.size());
    for (size_t i = 0; i < plan.slice_positions.size(); ++i) {
      slice_scratch_[i] = key[plan.slice_positions[i]];
    }
    EnsureSlice(plan.view_id, slice_scratch_);
  }
  return views_[static_cast<size_t>(plan.view_id)].At(key);
}

void Executor::InitializeLazySlice(int view_id, const Key& slice_key) {
  const compiler::ViewDef& def = program_.view(view_id);
  std::vector<ring::Tuple::Field> fields;
  fields.reserve(slice_key.size());
  for (size_t i = 0; i < def.slice_positions.size(); ++i) {
    fields.emplace_back(def.key_vars[def.slice_positions[i]],
                        slice_key[i]);
  }
  ring::Tuple env = ring::Tuple::FromFields(std::move(fields));
  auto result = agca::Evaluate(def.definition, base_db_, env);
  // Compiled view definitions are range-restricted queries; evaluation
  // cannot fail on a well-formed program.
  RINGDB_CHECK(result.ok());
  ViewTable& view = views_[static_cast<size_t>(view_id)];
  for (const auto& [tuple, m] : result->support()) {
    Key key(def.key_vars.size());
    for (size_t j = 0; j < def.key_vars.size(); ++j) {
      const Value* v = tuple.Get(def.key_vars[j]);
      RINGDB_CHECK(v != nullptr);
      key[j] = *v;
    }
    view.Add(key, m);
  }
  slices_[static_cast<size_t>(view_id)].insert(slice_key);
  ++stats_.init_evaluations;
}

size_t Executor::ApproxBytes() const {
  size_t bytes = 0;
  for (const ViewTable& v : views_) bytes += v.ApproxBytes();
  // Columnar window scratch: sign/row/scale buffers plus the grouped-path
  // open-addressing table (the per-Value payloads are trigger params, all
  // inline kinds in practice, so capacities suffice).
  bytes += (sign_rows_[0].capacity() + sign_rows_[1].capacity() +
            group_slots_.capacity() + rep_rows_.capacity() +
            win_rows_.capacity()) *
           sizeof(uint32_t);
  bytes += (rep_coeffs_.capacity() + win_scales_.capacity()) *
           sizeof(Numeric);
  bytes += rep_hashes_.capacity() * sizeof(uint64_t);
  bytes += (param_gather_.capacity() + row_gather_.capacity()) *
           sizeof(Value);
  return bytes;
}

}  // namespace runtime
}  // namespace ringdb
