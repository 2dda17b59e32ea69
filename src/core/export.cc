#include "dbwipes/core/export.h"

#include <cmath>
#include <cstdio>

namespace dbwipes {

namespace {

/// Tiny streaming JSON writer: tracks indentation and comma placement
/// so callers only emit keys and values.
class JsonWriter {
 public:
  explicit JsonWriter(bool pretty) : pretty_(pretty) {}

  std::string Take() { return std::move(out_); }

  void BeginObject() {
    Separator();
    out_ += '{';
    PushLevel();
  }
  void EndObject() {
    PopLevel();
    out_ += '}';
  }
  void BeginArray() {
    Separator();
    out_ += '[';
    PushLevel();
  }
  void EndArray() {
    PopLevel();
    out_ += ']';
  }

  void Key(const std::string& name) {
    Separator();
    out_ += '"' + JsonEscape(name) + "\":";
    if (pretty_) out_ += ' ';
    just_wrote_key_ = true;
  }

  void String(const std::string& value) {
    Separator();
    out_ += '"' + JsonEscape(value) + '"';
  }
  void Number(double value) {
    Separator();
    if (std::isnan(value) || std::isinf(value)) {
      out_ += "null";  // JSON has no NaN/Inf
      return;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
  }
  void Number(int64_t value) {
    Separator();
    out_ += std::to_string(value);
  }
  void Number(size_t value) { Number(static_cast<int64_t>(value)); }
  void Bool(bool value) {
    Separator();
    out_ += value ? "true" : "false";
  }
  void Null() {
    Separator();
    out_ += "null";
  }

 private:
  void PushLevel() {
    ++depth_;
    needs_comma_.push_back(false);
  }
  void PopLevel() {
    --depth_;
    needs_comma_.pop_back();
    Newline();
  }
  void Separator() {
    if (just_wrote_key_) {
      just_wrote_key_ = false;
      return;
    }
    if (!needs_comma_.empty()) {
      if (needs_comma_.back()) out_ += ',';
      needs_comma_.back() = true;
      Newline();
    }
  }
  void Newline() {
    if (!pretty_) return;
    out_ += '\n';
    out_ += std::string(static_cast<size_t>(depth_) * 2, ' ');
  }

  bool pretty_;
  std::string out_;
  int depth_ = 0;
  std::vector<bool> needs_comma_;
  bool just_wrote_key_ = false;
};

void WriteProfile(JsonWriter* w, const ExplainProfile& p) {
  w->BeginObject();

  w->Key("rid");
  w->Number(p.rid);

  w->Key("stage_ms");
  w->BeginObject();
  for (const StageClock& clock : kStageClocks) {
    w->Key(clock.name);
    w->Number(p.*clock.ms);
  }
  w->EndObject();

  w->Key("attempts");
  w->Number(p.attempts);

  w->Key("work");
  w->BeginObject();
  w->Key("table_rows");
  w->Number(p.table_rows);
  w->Key("suspect_rows");
  w->Number(p.suspect_rows);
  w->Key("candidate_datasets");
  w->Number(p.candidate_datasets);
  w->Key("predicates_enumerated");
  w->Number(p.predicates_enumerated);
  w->Key("predicates_scored");
  w->Number(p.predicates_scored);
  w->EndObject();

  w->Key("scoring_blocks");
  w->BeginObject();
  w->Key("total");
  w->Number(p.scoring_blocks_total);
  w->Key("done");
  w->Number(p.scoring_blocks_done);
  w->Key("block_ms");
  w->BeginArray();
  for (double ms : p.block_ms) w->Number(ms);
  w->EndArray();
  w->EndObject();

  w->Key("match_engine");
  w->BeginObject();
  w->Key("clause_lookups");
  w->Number(p.clause_lookups);
  w->Key("cache_hits");
  w->Number(p.cache_hits);
  w->Key("cache_misses");
  w->Number(p.cache_misses);
  w->Key("bitmaps_materialized");
  w->Number(p.bitmaps_materialized);
  w->Key("simd_tier");
  w->String(p.simd_tier);
  w->EndObject();

  if (p.num_shards > 0) {
    w->Key("shards");
    w->BeginObject();
    w->Key("count");
    w->Number(p.num_shards);
    w->Key("engines_reused");
    w->Number(p.shard_engines_reused);
    w->Key("skew");
    w->Number(p.shard_skew);
    w->Key("lanes");
    w->BeginArray();
    for (const ExplainProfile::ShardLane& lane : p.shards) {
      w->BeginObject();
      w->Key("shard");
      w->Number(lane.shard_index);
      w->Key("rows");
      w->Number(lane.rows);
      w->Key("suspects");
      w->Number(lane.suspects);
      w->Key("engine_reused");
      w->Bool(lane.engine_reused);
      w->Key("materialize_ms");
      w->Number(lane.materialize_ms);
      w->Key("clause_lookups");
      w->Number(lane.clause_lookups);
      w->Key("cache_hits");
      w->Number(lane.cache_hits);
      w->Key("cache_misses");
      w->Number(lane.cache_misses);
      w->Key("bitmaps_materialized");
      w->Number(lane.bitmaps_materialized);
      w->Key("cached_clauses");
      w->Number(lane.cached_clauses);
      w->EndObject();
    }
    w->EndArray();
    w->EndObject();
  }

  w->Key("thread_pool");
  w->BeginObject();
  w->Key("threads");
  w->Number(p.pool_threads);
  w->Key("regions");
  w->Number(static_cast<size_t>(p.pool_regions));
  w->Key("chunks");
  w->Number(static_cast<size_t>(p.pool_chunks));
  w->Key("busy_ms");
  w->Number(p.pool_busy_ms);
  w->Key("peak_queue_depth");
  w->Number(static_cast<size_t>(p.pool_peak_queue_depth));
  w->Key("utilization");
  w->Number(p.pool_utilization);
  w->EndObject();

  w->Key("anytime");
  w->BeginObject();
  w->Key("partial");
  w->Bool(p.partial);
  if (p.partial) {
    w->Key("reason");
    w->String(p.partial_reason);
  }
  w->Key("cancelled");
  w->Bool(p.cancelled);
  w->Key("deadline_expired");
  w->Bool(p.deadline_expired);
  if (p.has_deadline) {
    w->Key("deadline_remaining_ms");
    w->Number(p.deadline_remaining_ms);
  }
  w->EndObject();

  w->EndObject();
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

std::string ExplanationToJson(const Explanation& explanation, bool pretty) {
  JsonWriter w(pretty);
  w.BeginObject();

  w.Key("baseline_error");
  w.Number(explanation.preprocess.baseline_error);
  w.Key("per_group_baseline_error");
  w.Number(explanation.preprocess.per_group_baseline_error);
  w.Key("num_suspect_inputs");
  w.Number(explanation.preprocess.suspect_inputs.size());
  w.Key("num_cleaned_dprime");
  w.Number(explanation.cleaned_dprime.size());

  w.Key("partial");
  w.Bool(explanation.partial);
  if (explanation.partial) {
    w.Key("partial_reason");
    w.String(explanation.partial_reason);
  }
  w.Key("ranked_considered");
  w.Number(explanation.ranked_considered);
  w.Key("total_enumerated");
  w.Number(explanation.total_enumerated);

  w.Key("profile");
  WriteProfile(&w, explanation.profile);

  w.Key("candidates");
  w.BeginArray();
  for (const CandidateDataset& c : explanation.candidates) {
    w.BeginObject();
    w.Key("source");
    w.String(c.source);
    w.Key("num_rows");
    w.Number(c.rows.size());
    w.Key("error_after_removal");
    w.Number(c.error_after_removal);
    w.Key("error_reduction");
    w.Number(c.error_reduction);
    w.EndObject();
  }
  w.EndArray();

  w.Key("predicates");
  w.BeginArray();
  for (const RankedPredicate& p : explanation.predicates) {
    w.BeginObject();
    w.Key("predicate");
    w.String(p.predicate.ToString());
    w.Key("num_clauses");
    w.Number(p.predicate.num_clauses());
    w.Key("score");
    w.Number(p.score);
    w.Key("error_improvement");
    w.Number(p.error_improvement);
    w.Key("error_after");
    w.Number(p.error_after);
    w.Key("precision");
    w.Number(p.precision);
    w.Key("recall");
    w.Number(p.recall);
    w.Key("f1");
    w.Number(p.f1);
    w.Key("matched_in_suspects");
    w.Number(p.matched_in_suspects);
    w.Key("strategy");
    w.String(p.strategy);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  std::string out = w.Take();
  if (pretty) out += '\n';
  return out;
}

std::string ExplainProfileToJson(const ExplainProfile& profile, bool pretty) {
  JsonWriter w(pretty);
  WriteProfile(&w, profile);
  std::string out = w.Take();
  if (pretty) out += '\n';
  return out;
}

std::string QueryResultToJson(const QueryResult& result, bool pretty) {
  JsonWriter w(pretty);
  w.BeginObject();
  w.Key("sql");
  w.String(result.query.ToSql());
  w.Key("columns");
  w.BeginArray();
  if (result.rows) {
    for (const Field& f : result.rows->schema().fields()) {
      w.String(f.name);
    }
  }
  w.EndArray();
  w.Key("rows");
  w.BeginArray();
  if (result.rows) {
    for (RowId r = 0; r < result.rows->num_rows(); ++r) {
      w.BeginArray();
      for (size_t c = 0; c < result.rows->num_columns(); ++c) {
        const Column& col = result.rows->column(c);
        if (col.IsNull(r)) {
          w.Null();
        } else if (col.type() == DataType::kString) {
          w.String(col.GetString(r));
        } else if (col.type() == DataType::kInt64) {
          w.Number(col.GetInt64(r));
        } else {
          w.Number(col.GetDouble(r));
        }
      }
      w.EndArray();
    }
  }
  w.EndArray();
  w.EndObject();
  std::string out = w.Take();
  if (pretty) out += '\n';
  return out;
}

}  // namespace dbwipes
