#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "common/string_util.h"
#include "engine/database.h"
#include "engine/storage/integrity.h"

namespace tip::engine {

namespace {

// -- Scalar helpers ----------------------------------------------------------

Result<int64_t> CheckedAdd(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_add_overflow(a, b, &out)) {
    return Status::OutOfRange("integer addition overflow");
  }
  return out;
}

Result<int64_t> CheckedSub(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_sub_overflow(a, b, &out)) {
    return Status::OutOfRange("integer subtraction overflow");
  }
  return out;
}

Result<int64_t> CheckedMul(int64_t a, int64_t b) {
  int64_t out;
  if (__builtin_mul_overflow(a, b, &out)) {
    return Status::OutOfRange("integer multiplication overflow");
  }
  return out;
}

// SQL LIKE: '%' matches any run (including empty), '_' any one
// character. Iterative two-pointer matching with single-'%'
// backtracking — linear for patterns without nested wildcard overlap.
bool LikeMatch(std::string_view text, std::string_view pattern) {
  size_t t = 0, p = 0;
  size_t star_p = std::string_view::npos, star_t = 0;
  while (t < text.size()) {
    if (p < pattern.size() &&
        (pattern[p] == '_' || pattern[p] == text[t])) {
      ++t;
      ++p;
    } else if (p < pattern.size() && pattern[p] == '%') {
      star_p = p++;
      star_t = t;
    } else if (star_p != std::string_view::npos) {
      p = star_p + 1;
      t = ++star_t;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '%') ++p;
  return p == pattern.size();
}

Routine MakeRoutine(std::string name, std::vector<TypeId> params,
                    TypeId result, RoutineFn fn) {
  Routine r;
  r.name = std::move(name);
  r.params = std::move(params);
  r.result = result;
  r.fn = std::move(fn);
  return r;
}

Status RegisterArithmetic(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId i = TypeId::kInt, d = TypeId::kDouble, s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "+", {i, i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedAdd(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "+", {d, d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() + a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "-", {i, i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedSub(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "-", {d, d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() - a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "*", {i, i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t v,
                             CheckedMul(a[0].int_value(), a[1].int_value()));
        return Datum::Int(v);
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "*", {d, d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Double(a[0].double_value() * a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "/", {i, i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        if (a[1].int_value() == 0) {
          return Status::InvalidArgument("division by zero");
        }
        if (a[0].int_value() == INT64_MIN && a[1].int_value() == -1) {
          return Status::OutOfRange("integer division overflow");
        }
        return Datum::Int(a[0].int_value() / a[1].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "/", {d, d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        if (a[1].double_value() == 0.0) {
          return Status::InvalidArgument("division by zero");
        }
        return Datum::Double(a[0].double_value() / a[1].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "neg", {i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        if (a[0].int_value() == INT64_MIN) {
          return Status::OutOfRange("integer negation overflow");
        }
        return Datum::Int(-a[0].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "neg", {d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Double(-a[0].double_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "mod", {i, i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        if (a[1].int_value() == 0) {
          return Status::InvalidArgument("modulo by zero");
        }
        if (a[0].int_value() == INT64_MIN && a[1].int_value() == -1) {
          return Datum::Int(0);
        }
        return Datum::Int(a[0].int_value() % a[1].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "abs", {i}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        if (a[0].int_value() == INT64_MIN) {
          return Status::OutOfRange("abs overflow");
        }
        return Datum::Int(a[0].int_value() < 0 ? -a[0].int_value()
                                               : a[0].int_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "abs", {d}, d,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Double(std::fabs(a[0].double_value()));
      })));

  // greatest / least over the orderable builtins (the layered baseline's
  // temporal-join translation leans on these).
  struct MinMaxSpec {
    TypeId type;
    bool greatest;
  };
  for (TypeId t : {i, d, s}) {
    for (bool greatest : {true, false}) {
      const TypeRegistry* types = &db->types();
      TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
          greatest ? "greatest" : "least", {t, t}, t,
          [types, greatest](const std::vector<Datum>& a,
                            EvalContext& ctx) -> Result<Datum> {
            TIP_ASSIGN_OR_RETURN(int c,
                                 types->Compare(a[0], a[1], ctx.tx));
            return (c >= 0) == greatest ? a[0] : a[1];
          })));
    }
  }

  // String routines.
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "||", {s, s}, s,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::String(a[0].string_value() + a[1].string_value());
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "length", {s}, i,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Int(static_cast<int64_t>(a[0].string_value().size()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "lower", {s}, s,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::String(ToLowerAscii(a[0].string_value()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "upper", {s}, s,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::String(ToUpperAscii(a[0].string_value()));
      })));
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "like", {s, s}, TypeId::kBool,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        return Datum::Bool(LikeMatch(a[0].string_value(),
                                     a[1].string_value()));
      })));
  return Status::OK();
}

Status RegisterCasts(Database* db) {
  CastRegistry& reg = db->casts();
  // INT widens to DOUBLE implicitly; narrowing is explicit.
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kInt, TypeId::kDouble, /*implicit=*/true,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::Double(static_cast<double>(v.int_value()));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kDouble, TypeId::kInt, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        const double x = v.double_value();
        if (!(x >= -9.2233720368547758e18 && x <= 9.2233720368547758e18)) {
          return Status::OutOfRange("DOUBLE value out of INT range");
        }
        return Datum::Int(static_cast<int64_t>(x));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kString, TypeId::kInt, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(int64_t x, ParseInt64(v.string_value()));
        return Datum::Int(x);
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kString, TypeId::kDouble, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(double x, ParseDouble(v.string_value()));
        return Datum::Double(x);
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kInt, TypeId::kString, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::String(std::to_string(v.int_value()));
      }));
  TIP_RETURN_IF_ERROR(reg.Register(
      TypeId::kBool, TypeId::kString, /*implicit=*/false,
      [](const Datum& v, EvalContext&) -> Result<Datum> {
        return Datum::String(v.bool_value() ? "true" : "false");
      }));
  return Status::OK();
}

// -- Aggregates --------------------------------------------------------------

class CountState final : public AggregateState {
 public:
  Status Step(const Datum&, EvalContext&) override {
    ++count_;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override { return Datum::Int(count_); }
  Status Merge(AggregateState&& other, EvalContext&) override {
    count_ += static_cast<CountState&>(other).count_;
    return Status::OK();
  }

 private:
  int64_t count_ = 0;
};

class SumIntState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    TIP_ASSIGN_OR_RETURN(sum_, CheckedAdd(sum_, v.int_value()));
    seen_ = true;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    // SQL: SUM over the empty set is NULL.
    return seen_ ? Datum::Int(sum_) : Datum::NullOf(TypeId::kInt);
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const SumIntState& o = static_cast<SumIntState&>(other);
    if (!o.seen_) return Status::OK();
    TIP_ASSIGN_OR_RETURN(sum_, CheckedAdd(sum_, o.sum_));
    seen_ = true;
    return Status::OK();
  }

 private:
  int64_t sum_ = 0;
  bool seen_ = false;
};

class SumDoubleState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    sum_ += v.double_value();
    seen_ = true;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    return seen_ ? Datum::Double(sum_) : Datum::NullOf(TypeId::kDouble);
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const SumDoubleState& o = static_cast<SumDoubleState&>(other);
    if (o.seen_) {
      sum_ += o.sum_;
      seen_ = true;
    }
    return Status::OK();
  }

 private:
  double sum_ = 0;
  bool seen_ = false;
};

class AvgState final : public AggregateState {
 public:
  Status Step(const Datum& v, EvalContext&) override {
    sum_ += v.double_value();
    ++count_;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    if (count_ == 0) return Datum::NullOf(TypeId::kDouble);
    return Datum::Double(sum_ / static_cast<double>(count_));
  }
  Status Merge(AggregateState&& other, EvalContext&) override {
    const AvgState& o = static_cast<AvgState&>(other);
    sum_ += o.sum_;
    count_ += o.count_;
    return Status::OK();
  }

 private:
  double sum_ = 0;
  int64_t count_ = 0;
};

class MinMaxState final : public AggregateState {
 public:
  MinMaxState(const TypeRegistry* types, bool is_max)
      : types_(types), is_max_(is_max) {}

  Status Step(const Datum& v, EvalContext& ctx) override {
    if (!seen_) {
      best_ = v;
      seen_ = true;
      return Status::OK();
    }
    TIP_ASSIGN_OR_RETURN(int c, types_->Compare(v, best_, ctx.tx));
    if ((c > 0) == is_max_ && c != 0) best_ = v;
    return Status::OK();
  }
  Result<Datum> Final(EvalContext&) override {
    return seen_ ? best_ : Datum::Null();
  }
  Status Merge(AggregateState&& other, EvalContext& ctx) override {
    MinMaxState& o = static_cast<MinMaxState&>(other);
    if (!o.seen_) return Status::OK();
    return Step(o.best_, ctx);
  }

 private:
  const TypeRegistry* types_;
  bool is_max_;
  Datum best_;
  bool seen_ = false;
};

Status RegisterAggregates(Database* db) {
  AggregateRegistry& reg = db->aggregates();
  const TypeRegistry* types = &db->types();

  AggregateDef count;
  count.name = "count";
  count.any_param = true;
  count.result = TypeId::kInt;
  count.make_state = [] { return std::make_unique<CountState>(); };
  count.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(count)));

  AggregateDef sum_int;
  sum_int.name = "sum";
  sum_int.param = TypeId::kInt;
  sum_int.result = TypeId::kInt;
  sum_int.make_state = [] { return std::make_unique<SumIntState>(); };
  sum_int.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(sum_int)));

  AggregateDef sum_double;
  sum_double.name = "sum";
  sum_double.param = TypeId::kDouble;
  sum_double.result = TypeId::kDouble;
  sum_double.make_state = [] { return std::make_unique<SumDoubleState>(); };
  sum_double.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(sum_double)));

  AggregateDef avg;
  avg.name = "avg";
  avg.param = TypeId::kDouble;
  avg.result = TypeId::kDouble;
  avg.make_state = [] { return std::make_unique<AvgState>(); };
  avg.mergeable = true;
  TIP_RETURN_IF_ERROR(reg.Register(std::move(avg)));

  for (bool is_max : {false, true}) {
    AggregateDef def;
    def.name = is_max ? "max" : "min";
    def.any_param = true;
    def.result_same_as_param = true;
    def.make_state = [types, is_max] {
      return std::make_unique<MinMaxState>(types, is_max);
    };
    def.mergeable = true;
    TIP_RETURN_IF_ERROR(reg.Register(std::move(def)));
  }
  return Status::OK();
}

Result<IndexStatsSnapshot> LookupIndexStats(const Database* db,
                                            const std::string& table_name,
                                            const std::string& index_name) {
  TIP_ASSIGN_OR_RETURN(const Table* table,
                       db->catalog().GetTable(table_name));
  for (const IntervalIndexDef& def : table->interval_indexes()) {
    if (EqualsIgnoreCase(def.name, index_name)) return def.stats();
  }
  return Status::NotFound("index '" + index_name + "' does not exist on '" +
                          table->name() + "'");
}

// tip_index_stats('table', 'index')            -> formatted counter string
// tip_index_stats('table', 'index', 'counter') -> one counter as INT
// The observability surface for the segmented interval index: lets SQL
// (and hence tests and benches) assert how often each segment was
// rebuilt and how selective probes were.
Status RegisterIndexStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_index_stats", {s, s}, s,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(
            IndexStatsSnapshot stats,
            LookupIndexStats(db, a[0].string_value(), a[1].string_value()));
        return Datum::String(stats.ToString());
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_index_stats", {s, s, s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        TIP_ASSIGN_OR_RETURN(
            IndexStatsSnapshot stats,
            LookupIndexStats(db, a[0].string_value(), a[1].string_value()));
        const std::string counter = ToLowerAscii(a[2].string_value());
        uint64_t value;
        if (counter == "absolute_builds") {
          value = stats.absolute_builds;
        } else if (counter == "overlay_builds") {
          value = stats.overlay_builds;
        } else if (counter == "probes") {
          value = stats.probes;
        } else if (counter == "rows_scanned") {
          value = stats.rows_scanned;
        } else if (counter == "rows_returned") {
          value = stats.rows_returned;
        } else if (counter == "delta_applies") {
          value = stats.delta_applies;
        } else {
          return Status::InvalidArgument("unknown index counter '" +
                                         counter + "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));
  return Status::OK();
}

// tip_guard_stats()          -> formatted lifecycle counters
// tip_guard_stats('counter') -> one counter as INT
// The observability surface for the statement lifecycle guard: how often
// statements on this session hit timeouts, cancels, memory budgets, or
// degraded a parallel plan to serial.
Status RegisterGuardStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_guard_stats", {}, s,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        const GuardEvents& ev = db->guard_events();
        return Datum::String(
            "timeouts=" +
            std::to_string(ev.timeouts.load(std::memory_order_relaxed)) +
            " cancels=" +
            std::to_string(ev.cancels.load(std::memory_order_relaxed)) +
            " oom=" + std::to_string(ev.oom.load(std::memory_order_relaxed)) +
            " parallel_fallbacks=" +
            std::to_string(
                ev.parallel_fallbacks.load(std::memory_order_relaxed)));
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_guard_stats", {s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        const GuardEvents& ev = db->guard_events();
        const std::string counter = ToLowerAscii(a[0].string_value());
        uint64_t value;
        if (counter == "timeouts") {
          value = ev.timeouts.load(std::memory_order_relaxed);
        } else if (counter == "cancels") {
          value = ev.cancels.load(std::memory_order_relaxed);
        } else if (counter == "oom") {
          value = ev.oom.load(std::memory_order_relaxed);
        } else if (counter == "parallel_fallbacks") {
          value = ev.parallel_fallbacks.load(std::memory_order_relaxed);
        } else {
          return Status::InvalidArgument("unknown guard counter '" + counter +
                                         "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));

  // tip_sleep_ms(n) -> n after sleeping ~n milliseconds in 1ms slices,
  // checking the statement guard between slices. Exists so tests and
  // demos can hold a statement open long enough to cancel or time it
  // out deterministically.
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_sleep_ms", {TypeId::kInt}, TypeId::kInt,
      [](const std::vector<Datum>& a, EvalContext& eval) -> Result<Datum> {
        const int64_t ms = a[0].int_value();
        for (int64_t slept = 0; slept < ms; ++slept) {
          TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        TIP_RETURN_IF_ERROR(eval.CheckGuardNow());
        return Datum::Int(ms);
      })));
  return Status::OK();
}

// tip_wal_stats()          -> formatted durability counters
// tip_wal_stats('counter') -> one counter as INT
// tip_checkpoint()         -> takes a checkpoint, returns its LSN
// The observability surface for the durability subsystem, mirroring
// tip_index_stats / tip_guard_stats: append and fsync traffic, group-
// commit effectiveness, and what recovery had to do.
Status RegisterWalStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_wal_stats", {}, s,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        const DurabilityStats stats = db->durability_stats();
        return Datum::String(
            "mode=" + std::string(WalModeName(db->wal_mode())) + " " +
            stats.wal.ToString() +
            " next_lsn=" + std::to_string(stats.wal_next_lsn) +
            " checkpoints=" + std::to_string(stats.checkpoints) +
            " recoveries=" + std::to_string(stats.recoveries_run) +
            " replayed=" + std::to_string(stats.records_replayed) +
            " torn_tails=" + std::to_string(stats.torn_tail_truncations) +
            " txns_committed=" + std::to_string(stats.txns_committed) +
            " txns_rolled_back=" + std::to_string(stats.txns_rolled_back) +
            " txn_records_discarded=" +
            std::to_string(stats.txn_records_discarded));
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_wal_stats", {s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        const DurabilityStats stats = db->durability_stats();
        const std::string counter = ToLowerAscii(a[0].string_value());
        uint64_t value;
        if (counter == "records_appended") {
          value = stats.wal.records_appended;
        } else if (counter == "bytes_written") {
          value = stats.wal.bytes_written;
        } else if (counter == "fsyncs") {
          value = stats.wal.fsyncs;
        } else if (counter == "rotations") {
          value = stats.wal.rotations;
        } else if (counter == "max_batch_records") {
          value = stats.wal.max_batch_records;
        } else if (counter == "checkpoints") {
          value = stats.checkpoints;
        } else if (counter == "recoveries_run") {
          value = stats.recoveries_run;
        } else if (counter == "records_replayed") {
          value = stats.records_replayed;
        } else if (counter == "torn_tail_truncations") {
          value = stats.torn_tail_truncations;
        } else if (counter == "next_lsn") {
          value = stats.wal_next_lsn;
        } else if (counter == "txns_committed") {
          value = stats.txns_committed;
        } else if (counter == "txns_rolled_back") {
          value = stats.txns_rolled_back;
        } else if (counter == "txn_records_discarded") {
          value = stats.txn_records_discarded;
        } else {
          return Status::InvalidArgument("unknown wal counter '" + counter +
                                         "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));

  // tip_checkpoint() lets the torture harness (and operators) force a
  // snapshot + WAL truncation through plain SQL over the C API.
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_checkpoint", {}, TypeId::kInt,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        TIP_RETURN_IF_ERROR(db->Checkpoint());
        return Datum::Int(
            static_cast<int64_t>(db->durability_stats().checkpoints));
      })));

  // tip_sync_wal() forces the WAL to stable storage. Remote sessions
  // need it because RemoteConnection has no direct Database handle.
  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_sync_wal", {}, TypeId::kInt,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        TIP_RETURN_IF_ERROR(db->SyncWal());
        return Datum::Int(0);
      })));
  return Status::OK();
}

// tip_plan_stats()          -> formatted plan-cache counters
// tip_plan_stats('counter') -> one counter as INT
// The observability surface for the prepared-statement plan cache,
// mirroring the other tip_*_stats routines. Note the stats query itself
// is a SELECT: with the cache on it takes one miss of its own the first
// time a session runs it.
Status RegisterPlanStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_plan_stats", {}, s,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        const PlanCacheStats& st = db->plan_cache_stats();
        return Datum::String(
            "hits=" + std::to_string(st.hits.load(std::memory_order_relaxed)) +
            " misses=" +
            std::to_string(st.misses.load(std::memory_order_relaxed)) +
            " invalidations=" +
            std::to_string(st.invalidations.load(std::memory_order_relaxed)) +
            " evictions=" +
            std::to_string(st.evictions.load(std::memory_order_relaxed)) +
            " entries=" + std::to_string(db->plan_cache_entries()) +
            " capacity=" + std::to_string(db->plan_cache_capacity()) +
            " catalog_version=" + std::to_string(db->catalog_version()));
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_plan_stats", {s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        const PlanCacheStats& st = db->plan_cache_stats();
        const std::string counter = ToLowerAscii(a[0].string_value());
        uint64_t value;
        if (counter == "hits") {
          value = st.hits.load(std::memory_order_relaxed);
        } else if (counter == "misses") {
          value = st.misses.load(std::memory_order_relaxed);
        } else if (counter == "invalidations") {
          value = st.invalidations.load(std::memory_order_relaxed);
        } else if (counter == "evictions") {
          value = st.evictions.load(std::memory_order_relaxed);
        } else if (counter == "entries") {
          value = db->plan_cache_entries();
        } else if (counter == "capacity") {
          value = db->plan_cache_capacity();
        } else if (counter == "catalog_version") {
          value = db->catalog_version();
        } else {
          return Status::InvalidArgument("unknown plan counter '" + counter +
                                         "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));
  return Status::OK();
}

// tip_verify()            -> one-line online scrub verdict (all tables)
// tip_health()            -> scrub counters + quarantine list
// tip_health('counter')   -> one counter as INT
// tip_verify_dir('path')  -> offline deep-scan of a durable directory
// The observability surface for the integrity subsystem. tip_verify()
// is the scalar twin of CHECK DATABASE; tip_verify_dir() validates a
// directory *without* attaching it (no replay, no truncation — safe to
// point at a directory another process owns).
Status RegisterIntegrityStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_verify", {}, s,
      [db](const std::vector<Datum>&, EvalContext& eval) -> Result<Datum> {
        uint64_t objects = 0;
        uint64_t corruptions = 0;
        std::string bad;
        for (const std::string& name : db->catalog().TableNames()) {
          ++objects;
          Result<Table*> table = db->catalog().GetTable(name);
          if (!table.ok()) {
            if (table.status().code() != StatusCode::kCorruption) {
              continue;  // dropped since TableNames — not corruption
            }
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += name + ": quarantined";
            continue;
          }
          TIP_ASSIGN_OR_RETURN(CheckFinding finding,
                               CheckTable(db, *table, &eval));
          if (!finding.ok) {
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += name + ": " + finding.detail;
          }
        }
        for (const auto& [qname, cause] : db->catalog().QuarantineList()) {
          Result<Table*> present = db->catalog().GetTableAnyState(qname);
          if (present.ok()) continue;  // counted above
          ++objects;
          ++corruptions;
          if (!bad.empty()) bad += "; ";
          bad += qname + ": quarantined (no storage)";
        }
        if (db->durable()) {
          ++objects;
          OfflineVerifyReport wal_report;
          Status scanned = VerifyWalFile(db->durable_dir() + "/wal.log",
                                         &wal_report);
          if (!scanned.ok() || !wal_report.clean()) {
            ++corruptions;
            if (!bad.empty()) bad += "; ";
            bad += "wal: " + (scanned.ok()
                                  ? wal_report.problems.front()
                                  : std::string(scanned.message()));
          }
        }
        db->RecordScrub(objects, corruptions);
        if (corruptions == 0) {
          return Datum::String("ok objects=" + std::to_string(objects));
        }
        return Datum::String("corrupt=" + std::to_string(corruptions) +
                             " objects=" + std::to_string(objects) + ": " +
                             bad);
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_health", {}, s,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        const IntegrityStats stats = db->integrity_stats();
        std::string out =
            "scrubs=" + std::to_string(stats.scrubs_run) +
            " objects_checked=" + std::to_string(stats.objects_checked) +
            " corruptions_found=" + std::to_string(stats.corruptions_found) +
            " quarantined=" + std::to_string(stats.tables_quarantined) +
            " scrub_ticks=" + std::to_string(stats.scrub_ticks);
        for (const auto& [name, cause] : db->catalog().QuarantineList()) {
          out += " [" + name + ": " + cause + "]";
        }
        const auto manifest = db->corruption_manifest();
        if (!manifest.empty()) {
          out += " manifest=" + std::to_string(manifest.size());
          for (const CorruptionManifestEntry& entry : manifest) {
            out += " {" + entry.object + " @ " + entry.file;
            if (entry.lsn != 0) out += " lsn=" + std::to_string(entry.lsn);
            if (entry.offset != 0) {
              out += " offset=" + std::to_string(entry.offset);
            }
            out += ": " + entry.cause + "}";
          }
        }
        return Datum::String(out);
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_health", {s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        const IntegrityStats stats = db->integrity_stats();
        const std::string counter = ToLowerAscii(a[0].string_value());
        uint64_t value;
        if (counter == "scrubs_run") {
          value = stats.scrubs_run;
        } else if (counter == "objects_checked") {
          value = stats.objects_checked;
        } else if (counter == "corruptions_found") {
          value = stats.corruptions_found;
        } else if (counter == "quarantined") {
          value = stats.tables_quarantined;
        } else if (counter == "scrub_ticks") {
          value = stats.scrub_ticks;
        } else if (counter == "manifest_entries") {
          value = db->corruption_manifest().size();
        } else {
          return Status::InvalidArgument("unknown health counter '" +
                                         counter + "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_verify_dir", {s}, s,
      [](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        OfflineVerifyReport report;
        TIP_RETURN_IF_ERROR(VerifyDurableDir(a[0].string_value(), &report));
        std::string out =
            report.clean() ? "clean" : std::string("corrupt");
        out += " snapshot_sections=" +
               std::to_string(report.snapshot_sections) +
               " wal_records=" + std::to_string(report.wal_records);
        if (report.torn_tail) out += " torn_tail";
        if (report.open_txn_tail) out += " open_txn_tail";
        for (const std::string& problem : report.problems) {
          out += " [" + problem + "]";
        }
        return Datum::String(out);
      })));
  return Status::OK();
}

// tip_server_stats()          -> formatted server front-end counters
// tip_server_stats('counter') -> one counter as INT
// The observability surface for the TCP server front-end: session
// admission traffic, wire volume, drains, and fail-stop session
// deaths. Queryable from any session, remote or embedded.
Status RegisterServerStats(Database* db) {
  RoutineRegistry& reg = db->routines();
  const TypeId s = TypeId::kString;

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_server_stats", {}, s,
      [db](const std::vector<Datum>&, EvalContext&) -> Result<Datum> {
        const ServerStatsCounters& sv = db->server_stats();
        return Datum::String(
            "active=" +
            std::to_string(
                sv.sessions_active.load(std::memory_order_relaxed)) +
            " peak=" +
            std::to_string(sv.sessions_peak.load(std::memory_order_relaxed)) +
            " total=" +
            std::to_string(sv.sessions_total.load(std::memory_order_relaxed)) +
            " rejected=" +
            std::to_string(
                sv.sessions_rejected.load(std::memory_order_relaxed)) +
            " statements=" +
            std::to_string(
                sv.statements_served.load(std::memory_order_relaxed)) +
            " bytes_in=" +
            std::to_string(sv.bytes_in.load(std::memory_order_relaxed)) +
            " bytes_out=" +
            std::to_string(sv.bytes_out.load(std::memory_order_relaxed)) +
            " drains=" +
            std::to_string(sv.drains.load(std::memory_order_relaxed)) +
            " session_aborts=" +
            std::to_string(
                sv.session_aborts.load(std::memory_order_relaxed)) +
            " cancels=" +
            std::to_string(
                sv.cancels_received.load(std::memory_order_relaxed)) +
            " idle_timeouts=" +
            std::to_string(sv.idle_timeouts.load(std::memory_order_relaxed)) +
            " wire_faults=" +
            std::to_string(sv.wire_faults.load(std::memory_order_relaxed)) +
            " gate_shared=" +
            std::to_string(sv.gate_shared.load(std::memory_order_relaxed)) +
            " gate_exclusive=" +
            std::to_string(
                sv.gate_exclusive.load(std::memory_order_relaxed)) +
            " gate_upgrades=" +
            std::to_string(
                sv.gate_upgrades.load(std::memory_order_relaxed)) +
            " gate_wait_shared_ms=" +
            std::to_string(
                sv.gate_wait_shared_ms.load(std::memory_order_relaxed)) +
            " gate_wait_exclusive_ms=" +
            std::to_string(
                sv.gate_wait_exclusive_ms.load(std::memory_order_relaxed)) +
            " gate_busy_shared=" +
            std::to_string(
                sv.gate_busy_shared.load(std::memory_order_relaxed)) +
            " gate_busy_exclusive=" +
            std::to_string(
                sv.gate_busy_exclusive.load(std::memory_order_relaxed)));
      })));

  TIP_RETURN_IF_ERROR(reg.Register(MakeRoutine(
      "tip_server_stats", {s}, TypeId::kInt,
      [db](const std::vector<Datum>& a, EvalContext&) -> Result<Datum> {
        const ServerStatsCounters& sv = db->server_stats();
        const std::string counter = ToLowerAscii(a[0].string_value());
        uint64_t value;
        if (counter == "sessions_active") {
          value = sv.sessions_active.load(std::memory_order_relaxed);
        } else if (counter == "sessions_peak") {
          value = sv.sessions_peak.load(std::memory_order_relaxed);
        } else if (counter == "sessions_total") {
          value = sv.sessions_total.load(std::memory_order_relaxed);
        } else if (counter == "sessions_rejected") {
          value = sv.sessions_rejected.load(std::memory_order_relaxed);
        } else if (counter == "statements_served") {
          value = sv.statements_served.load(std::memory_order_relaxed);
        } else if (counter == "bytes_in") {
          value = sv.bytes_in.load(std::memory_order_relaxed);
        } else if (counter == "bytes_out") {
          value = sv.bytes_out.load(std::memory_order_relaxed);
        } else if (counter == "drains") {
          value = sv.drains.load(std::memory_order_relaxed);
        } else if (counter == "session_aborts") {
          value = sv.session_aborts.load(std::memory_order_relaxed);
        } else if (counter == "cancels_received") {
          value = sv.cancels_received.load(std::memory_order_relaxed);
        } else if (counter == "idle_timeouts") {
          value = sv.idle_timeouts.load(std::memory_order_relaxed);
        } else if (counter == "wire_faults") {
          value = sv.wire_faults.load(std::memory_order_relaxed);
        } else if (counter == "gate_shared") {
          value = sv.gate_shared.load(std::memory_order_relaxed);
        } else if (counter == "gate_exclusive") {
          value = sv.gate_exclusive.load(std::memory_order_relaxed);
        } else if (counter == "gate_upgrades") {
          value = sv.gate_upgrades.load(std::memory_order_relaxed);
        } else if (counter == "gate_wait_shared_ms") {
          value = sv.gate_wait_shared_ms.load(std::memory_order_relaxed);
        } else if (counter == "gate_wait_exclusive_ms") {
          value = sv.gate_wait_exclusive_ms.load(std::memory_order_relaxed);
        } else if (counter == "gate_busy_shared") {
          value = sv.gate_busy_shared.load(std::memory_order_relaxed);
        } else if (counter == "gate_busy_exclusive") {
          value = sv.gate_busy_exclusive.load(std::memory_order_relaxed);
        } else {
          return Status::InvalidArgument("unknown server counter '" + counter +
                                         "'");
        }
        return Datum::Int(static_cast<int64_t>(value));
      })));
  return Status::OK();
}

}  // namespace

Status RegisterBuiltins(Database* db) {
  TIP_RETURN_IF_ERROR(RegisterArithmetic(db));
  TIP_RETURN_IF_ERROR(RegisterCasts(db));
  TIP_RETURN_IF_ERROR(RegisterAggregates(db));
  TIP_RETURN_IF_ERROR(RegisterIndexStats(db));
  TIP_RETURN_IF_ERROR(RegisterGuardStats(db));
  TIP_RETURN_IF_ERROR(RegisterWalStats(db));
  TIP_RETURN_IF_ERROR(RegisterPlanStats(db));
  TIP_RETURN_IF_ERROR(RegisterIntegrityStats(db));
  TIP_RETURN_IF_ERROR(RegisterServerStats(db));
  return Status::OK();
}

}  // namespace tip::engine
