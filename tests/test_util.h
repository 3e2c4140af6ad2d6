#ifndef PARINDA_TESTS_TEST_UTIL_H_
#define PARINDA_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "storage/database.h"

namespace parinda {
namespace testing_util {

/// Name generator for INSTANTIATE_TEST_SUITE_P: "<case index>_<label>",
/// from a `label` member of the parameter struct. gtest's default prints a
/// struct parameter's raw bytes, pointer bits included, so those names
/// change from build to build.
struct CaseName {
  template <typename ParamInfo>
  std::string operator()(const ParamInfo& info) const {
    return std::to_string(info.index) + "_" + info.param.label;
  }
};

/// Builds `orders(id bigint PK, customer_id bigint, amount double,
/// region varchar, flag bool)` with `rows` rows of deterministic data:
///  - id: 0..rows-1 in physical order (correlation 1.0)
///  - customer_id: uniform in [0, rows/10)
///  - amount: uniform double [0, 1000)
///  - region: zipf over 8 region names
///  - flag: bernoulli(0.3), 5% NULL
inline TableId MakeOrdersTable(Database* db, int64_t rows,
                               uint64_t seed = 42) {
  TableSchema schema("orders", {
                                   {"id", ValueType::kInt64, 8, false},
                                   {"customer_id", ValueType::kInt64, 8, true},
                                   {"amount", ValueType::kDouble, 8, true},
                                   {"region", ValueType::kString, 10, true},
                                   {"flag", ValueType::kBool, 1, true},
                               });
  auto created = db->CreateTable(std::move(schema), {0});
  PARINDA_CHECK_OK(created);
  const TableId id = created.value();
  Random rng(seed);
  const char* kRegions[] = {"north", "south", "east",      "west",
                            "center", "apac", "emea", "latam"};
  std::vector<Row> batch;
  batch.reserve(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    Row row;
    row.push_back(Value::Int64(i));
    row.push_back(Value::Int64(static_cast<int64_t>(
        rng.Uniform(static_cast<uint64_t>(std::max<int64_t>(1, rows / 10))))));
    row.push_back(Value::Double(rng.UniformDouble(0.0, 1000.0)));
    row.push_back(Value::String(kRegions[rng.NextZipf(8, 0.9)]));
    if (rng.Bernoulli(0.05)) {
      row.push_back(Value::Null());
    } else {
      row.push_back(Value::Bool(rng.Bernoulli(0.3)));
    }
    batch.push_back(std::move(row));
  }
  PARINDA_CHECK_OK(db->InsertMany(id, std::move(batch)));
  PARINDA_CHECK_OK(db->Analyze(id));
  return id;
}

/// Builds `customers(cid bigint PK, name varchar, score double)` with one row
/// per distinct orders.customer_id.
inline TableId MakeCustomersTable(Database* db, int64_t rows,
                                  uint64_t seed = 7) {
  TableSchema schema("customers", {
                                      {"cid", ValueType::kInt64, 8, false},
                                      {"name", ValueType::kString, 12, true},
                                      {"score", ValueType::kDouble, 8, true},
                                  });
  auto created = db->CreateTable(std::move(schema), {0});
  PARINDA_CHECK_OK(created);
  const TableId id = created.value();
  Random rng(seed);
  std::vector<Row> batch;
  for (int64_t i = 0; i < rows; ++i) {
    batch.push_back(Row{Value::Int64(i),
                        Value::String("cust_" + std::to_string(i)),
                        Value::Double(rng.UniformDouble(0.0, 100.0))});
  }
  PARINDA_CHECK_OK(db->InsertMany(id, std::move(batch)));
  PARINDA_CHECK_OK(db->Analyze(id));
  return id;
}

}  // namespace testing_util
}  // namespace parinda

#endif  // PARINDA_TESTS_TEST_UTIL_H_
