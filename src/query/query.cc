#include "src/query/query.h"

#include <limits>

namespace reactdb {

Select& Select::KeyPrefix(Row prefix) {
  path_ = AccessPath::kKeyPrefix;
  key_lo_ = std::move(prefix);
  return *this;
}

Select& Select::Key(Row key) {
  path_ = AccessPath::kKey;
  key_lo_ = std::move(key);
  return *this;
}

Select& Select::KeyRange(Row lo, Row hi) {
  path_ = AccessPath::kKeyRange;
  key_lo_ = std::move(lo);
  key_hi_ = std::move(hi);
  return *this;
}

Select& Select::Index(const std::string& index_name, Row index_key) {
  path_ = AccessPath::kIndex;
  index_name_ = index_name;
  key_lo_ = std::move(index_key);
  return *this;
}

Select& Select::Where(Expr predicate) {
  if (predicate_.has_value()) {
    predicate_ = std::move(*predicate_) && std::move(predicate);
  } else {
    predicate_ = std::move(predicate);
  }
  return *this;
}

Select& Select::Limit(int64_t n) {
  limit_ = n;
  return *this;
}

Select& Select::Reverse() {
  reverse_ = true;
  return *this;
}

Status Select::ForEach(SiloTxn* txn, uint32_t container,
                       const std::function<bool(const Row&)>& cb) const {
  const Schema& schema = table_->schema();
  int64_t remaining = limit_;
  bool exhausted = false;
  auto filtered = [&](const Row& row) {
    if (predicate_.has_value() && !predicate_->Test(row, schema)) {
      return true;  // continue scan
    }
    if (remaining == 0) {
      exhausted = true;
      return false;
    }
    if (remaining > 0) --remaining;
    bool keep_going = cb(row);
    if (remaining == 0) exhausted = true;
    return keep_going && !exhausted;
  };
  // Without a predicate every scanned row counts toward the limit, so the
  // storage scan can size its first candidate chunk from it.
  const int64_t scan_limit = predicate_.has_value() ? -1 : limit_;
  switch (path_) {
    case AccessPath::kKey: {
      StatusOr<Row> row = txn->Get(table_, key_lo_, container);
      if (!row.ok()) {
        if (row.status().IsNotFound()) return Status::OK();
        return row.status();
      }
      if (!predicate_.has_value() || predicate_->Test(row.value(), schema)) {
        cb(row.value());
      }
      return Status::OK();
    }
    case AccessPath::kKeyPrefix:
      return reverse_
                 ? txn->ReverseScanPrefix(table_, key_lo_, scan_limit,
                                          filtered, container)
                 : txn->ScanPrefix(table_, key_lo_, scan_limit, filtered,
                                   container);
    case AccessPath::kKeyRange:
      return reverse_ ? txn->ReverseScan(table_, key_lo_, key_hi_,
                                         scan_limit, filtered, container)
                      : txn->Scan(table_, key_lo_, key_hi_, scan_limit,
                                  filtered, container);
    case AccessPath::kIndex: {
      int pos = table_->secondary_pos(index_name_);
      if (pos < 0) {
        return Status::InvalidArgument("no index " + index_name_ + " on " +
                                       table_->name());
      }
      size_t index_pos = static_cast<size_t>(pos);
      return reverse_ ? txn->ReverseScanSecondary(table_, index_pos, key_lo_,
                                                  -1, filtered, container)
                      : txn->ScanSecondary(table_, index_pos, key_lo_, -1,
                                           filtered, container);
    }
    case AccessPath::kFullScan:
      return reverse_
                 ? txn->ReverseScan(table_, {}, {}, scan_limit, filtered,
                                    container)
                 : txn->Scan(table_, {}, {}, scan_limit, filtered, container);
  }
  return Status::Internal("bad access path");
}

StatusOr<std::vector<Row>> Select::Rows(SiloTxn* txn,
                                        uint32_t container) const {
  std::vector<Row> rows;
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&rows](const Row& row) {
    rows.push_back(row);
    return true;
  }));
  return rows;
}

StatusOr<Row> Select::One(SiloTxn* txn, uint32_t container) const {
  std::optional<Row> found;
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&found](const Row& row) {
    found = row;
    return false;
  }));
  if (!found.has_value()) {
    return Status::NotFound("no matching row in " + table_->name());
  }
  return *found;
}

StatusOr<int64_t> Select::Count(SiloTxn* txn, uint32_t container) const {
  int64_t n = 0;
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&n](const Row&) {
    ++n;
    return true;
  }));
  return n;
}

StatusOr<double> Select::Sum(SiloTxn* txn, uint32_t container,
                             const std::string& column) const {
  int id = table_->schema().ColumnId(column);
  if (id < 0) {
    return Status::InvalidArgument("unknown column " + column);
  }
  double sum = 0;
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&sum, id](const Row& row) {
    const Value& v = row[static_cast<size_t>(id)];
    if (!v.is_null()) sum += v.AsNumeric();
    return true;
  }));
  return sum;
}

StatusOr<Value> Select::Min(SiloTxn* txn, uint32_t container,
                            const std::string& column) const {
  int id = table_->schema().ColumnId(column);
  if (id < 0) return Status::InvalidArgument("unknown column " + column);
  Value best = Value::Null();
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&best, id](const Row& row) {
    const Value& v = row[static_cast<size_t>(id)];
    if (!v.is_null() && (best.is_null() || v < best)) best = v;
    return true;
  }));
  return best;
}

StatusOr<Value> Select::Max(SiloTxn* txn, uint32_t container,
                            const std::string& column) const {
  int id = table_->schema().ColumnId(column);
  if (id < 0) return Status::InvalidArgument("unknown column " + column);
  Value best = Value::Null();
  REACTDB_RETURN_IF_ERROR(ForEach(txn, container, [&best, id](const Row& row) {
    const Value& v = row[static_cast<size_t>(id)];
    if (!v.is_null() && (best.is_null() || v > best)) best = v;
    return true;
  }));
  return best;
}

Update& Update::Set(const std::string& column, Expr e) {
  sets_.emplace_back(column, std::move(e));
  return *this;
}

StatusOr<int64_t> Update::Execute(SiloTxn* txn, uint32_t container) const {
  const Schema& schema = table_->schema();
  // Resolve target column ids once.
  std::vector<int> ids;
  ids.reserve(sets_.size());
  for (const auto& [column, expr] : sets_) {
    int id = schema.ColumnId(column);
    if (id < 0) return Status::InvalidArgument("unknown column " + column);
    ids.push_back(id);
  }
  // Materialize matches first: updating while scanning would grow the
  // write set mid-scan.
  REACTDB_ASSIGN_OR_RETURN(std::vector<Row> rows, select_.Rows(txn, container));
  for (const Row& row : rows) {
    Row updated = row;
    for (size_t i = 0; i < sets_.size(); ++i) {
      REACTDB_ASSIGN_OR_RETURN(Value v, sets_[i].second.Eval(row, schema));
      updated[static_cast<size_t>(ids[i])] = std::move(v);
    }
    REACTDB_RETURN_IF_ERROR(txn->Update(table_, schema.ExtractKey(row),
                                        std::move(updated), container));
  }
  return static_cast<int64_t>(rows.size());
}

}  // namespace reactdb
