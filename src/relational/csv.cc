#include "relational/csv.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/str_util.h"

namespace dynview {

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos || s.empty();
}

/// The one quoting rule: `s` in double quotes, each quote inside doubled.
void AppendQuoted(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    if (c == '"') *out += '"';
    *out += c;
  }
  *out += '"';
}

void AppendField(std::string* out, const std::string& field) {
  if (NeedsQuoting(field)) {
    AppendQuoted(out, field);
  } else {
    *out += field;
  }
}

std::string FieldOf(const Value& v) {
  switch (v.kind()) {
    case TypeKind::kNull:
      return "";  // Empty unquoted field round-trips to NULL.
    case TypeKind::kString:
      return v.as_string();
    default:
      return v.ToLabel();
  }
}

/// The typed-CSV cell rules, the only copy: NULL is an empty unquoted
/// field; strings are always quoted (under a declared STRING column quoting
/// is not needed to disambiguate, but mixed/inferred columns read back
/// "1997-01-01" as a DATE unless the quotes say otherwise); doubles use
/// round-trip precision; INT and DATE are written without temporaries.
void AppendTypedCell(std::string* out, const Value& v) {
  char buf[24];
  switch (v.kind()) {
    case TypeKind::kNull:
      return;
    case TypeKind::kString:
      AppendQuoted(out, v.as_string());
      return;
    case TypeKind::kInt:
      out->append(buf, std::to_chars(buf, buf + sizeof(buf), v.as_int()).ptr);
      return;
    case TypeKind::kDate: {
      int y, m, d;
      v.as_date().ToYmd(&y, &m, &d);
      if (y < 0 || y > 9999) {
        *out += v.as_date().ToString();
        return;
      }
      // Date::ToString's fixed-width YYYY-MM-DD.
      const int digits[] = {y / 1000, y / 100 % 10, y / 10 % 10, y % 10,
                            m / 10,   m % 10,       d / 10,      d % 10};
      char ymd[] = "0000-00-00";
      for (int i = 0, j = 0; i < 10; ++i) {
        if (ymd[i] != '-') ymd[i] = static_cast<char>('0' + digits[j++]);
      }
      out->append(ymd, 10);
      return;
    }
    case TypeKind::kDouble:
      *out += RoundTripDouble(v.as_double());
      return;
    case TypeKind::kBool:
      *out += v.as_bool() ? "TRUE" : "FALSE";
      return;
  }
}

/// Parses one CSV record starting at `*pos`; advances past the record's
/// line terminator. `quoted[i]` reports whether field i was quoted.
Result<bool> ParseRecord(const std::string& csv, size_t* pos,
                         std::vector<std::string>* fields,
                         std::vector<bool>* quoted) {
  fields->clear();
  quoted->clear();
  size_t i = *pos;
  const size_t n = csv.size();
  if (i >= n) return false;
  std::string field;
  bool was_quoted = false;
  bool in_quotes = false;
  while (i <= n) {
    if (in_quotes) {
      if (i >= n) return Status::ParseError("unterminated quoted CSV field");
      char c = csv[i];
      if (c == '"' && i + 1 < n && csv[i + 1] == '"') {
        field += '"';
        i += 2;
      } else if (c == '"') {
        in_quotes = false;
        ++i;
      } else {
        field += c;
        ++i;
      }
      continue;
    }
    if (i == n || csv[i] == '\n' || csv[i] == '\r') {
      fields->push_back(std::move(field));
      quoted->push_back(was_quoted);
      // Swallow the newline sequence.
      if (i < n && csv[i] == '\r') ++i;
      if (i < n && csv[i] == '\n') ++i;
      *pos = i;
      return true;
    }
    char c = csv[i];
    if (c == ',') {
      fields->push_back(std::move(field));
      quoted->push_back(was_quoted);
      field.clear();
      was_quoted = false;
      ++i;
    } else if (c == '"' && field.empty()) {
      in_quotes = true;
      was_quoted = true;
      ++i;
    } else {
      field += c;
      ++i;
    }
  }
  return Status::Internal("unreachable CSV state");
}

Value InferValue(const std::string& field, bool was_quoted) {
  if (field.empty() && !was_quoted) return Value::Null();
  if (was_quoted) return Value::String(field);
  // INT.
  {
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(field.c_str(), &end, 10);
    if (errno == 0 && end != field.c_str() && *end == '\0') {
      return Value::Int(v);
    }
  }
  // DOUBLE.
  {
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(field.c_str(), &end);
    if (errno == 0 && end != field.c_str() && *end == '\0') {
      return Value::Double(v);
    }
  }
  if (EqualsIgnoreCase(field, "true")) return Value::Bool(true);
  if (EqualsIgnoreCase(field, "false")) return Value::Bool(false);
  if (field.size() == 10 && field[4] == '-' && field[7] == '-') {
    Result<Date> d = Date::Parse(field);
    if (d.ok()) return Value::MakeDate(d.value());
  }
  return Value::String(field);
}

Result<Value> ParseTypedField(const std::string& field, bool was_quoted,
                              TypeKind type, size_t column) {
  if (field.empty() && !was_quoted) return Value::Null();
  switch (type) {
    case TypeKind::kNull:
      return InferValue(field, was_quoted);
    case TypeKind::kString:
      return Value::String(field);
    case TypeKind::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (errno != 0 || end == field.c_str() || *end != '\0') {
        return Status::ParseError("CSV column " + std::to_string(column) +
                                  ": '" + field + "' is not an INT");
      }
      return Value::Int(v);
    }
    case TypeKind::kDouble: {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(field.c_str(), &end);
      if (end == field.c_str() || *end != '\0') {
        return Status::ParseError("CSV column " + std::to_string(column) +
                                  ": '" + field + "' is not a DOUBLE");
      }
      return Value::Double(v);
    }
    case TypeKind::kBool:
      if (EqualsIgnoreCase(field, "true")) return Value::Bool(true);
      if (EqualsIgnoreCase(field, "false")) return Value::Bool(false);
      return Status::ParseError("CSV column " + std::to_string(column) +
                                ": '" + field + "' is not a BOOL");
    case TypeKind::kDate: {
      DV_ASSIGN_OR_RETURN(Date d, Date::Parse(field));
      return Value::MakeDate(d);
    }
  }
  return Status::ParseError("unknown column type");
}

/// Parses CSV text whose first record is the header. Column c parses as
/// `(*types)[c]` (whose size must match the header), or every column as
/// `untyped` when `types` is null. A bare empty line is skipped, except
/// under one declared column, where it is a NULL row.
Result<Table> ParseTable(const std::string& csv,
                         const std::vector<TypeKind>* types,
                         TypeKind untyped) {
  size_t pos = 0;
  std::vector<std::string> fields;
  std::vector<bool> quoted;
  DV_ASSIGN_OR_RETURN(bool has_header,
                      ParseRecord(csv, &pos, &fields, &quoted));
  if (!has_header) return Status::ParseError("empty CSV input");
  const size_t arity = fields.size();
  if (types != nullptr && arity != types->size()) {
    return Status::ParseError(
        "CSV header arity " + std::to_string(arity) +
        " does not match declared column types (" +
        std::to_string(types->size()) + ")");
  }
  const std::vector<TypeKind> kinds =
      types != nullptr ? *types : std::vector<TypeKind>(arity, untyped);
  Table table(Schema::FromNames(fields));
  while (true) {
    DV_ASSIGN_OR_RETURN(bool more, ParseRecord(csv, &pos, &fields, &quoted));
    if (!more) break;
    if ((types == nullptr || arity > 1) && fields.size() == 1 &&
        fields[0].empty() && !quoted[0]) {
      continue;  // Blank line.
    }
    if (fields.size() != arity) {
      return Status::ParseError("CSV row arity " +
                                std::to_string(fields.size()) +
                                " does not match header " +
                                std::to_string(arity));
    }
    Row row;
    row.reserve(arity);
    for (size_t c = 0; c < arity; ++c) {
      DV_ASSIGN_OR_RETURN(Value v,
                          ParseTypedField(fields[c], quoted[c], kinds[c], c));
      row.push_back(std::move(v));
    }
    table.AppendRowUnchecked(std::move(row));
  }
  return table;
}

Status WriteTextFile(const std::string& text, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::InvalidArgument("cannot open '" + path +
                                   "': " + std::strerror(errno));
  }
  size_t written = std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  if (written != text.size()) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::NotFound("cannot open '" + path +
                            "': " + std::strerror(errno));
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

}  // namespace

void AppendCsvHeader(const Schema& schema, std::string* out) {
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    if (c > 0) *out += ',';
    AppendField(out, schema.column(c).name);
  }
  *out += '\n';
}

void AppendTypedCsvRow(const Row& row, std::string* out) {
  for (size_t c = 0; c < row.size(); ++c) {
    if (c > 0) *out += ',';
    AppendTypedCell(out, row[c]);
  }
  *out += '\n';
}

std::string TableToCsvTyped(const Table& table) {
  std::string out;
  AppendCsvHeader(table.schema(), &out);
  for (const Row& r : table.rows()) AppendTypedCsvRow(r, &out);
  return out;
}

Result<Table> TableFromCsvTyped(const std::string& csv,
                                const std::vector<TypeKind>& column_types) {
  return ParseTable(csv, &column_types, TypeKind::kNull);
}

std::vector<TypeKind> ColumnKindsOf(const Table& table) {
  std::vector<TypeKind> kinds(table.schema().num_columns(), TypeKind::kNull);
  std::vector<bool> mixed(kinds.size(), false);
  for (const Row& r : table.rows()) {
    for (size_t c = 0; c < r.size(); ++c) {
      if (r[c].is_null() || mixed[c]) continue;
      if (kinds[c] == TypeKind::kNull) {
        kinds[c] = r[c].kind();
      } else if (kinds[c] != r[c].kind()) {
        kinds[c] = TypeKind::kNull;
        mixed[c] = true;
      }
    }
  }
  return kinds;
}

std::string TableToCsv(const Table& table) {
  std::string out;
  AppendCsvHeader(table.schema(), &out);
  for (const Row& r : table.rows()) {
    for (size_t c = 0; c < r.size(); ++c) {
      if (c > 0) out += ',';
      if (r[c].is_null()) continue;  // Empty unquoted field.
      // Strings that could be misread as numbers/NULL are quoted.
      std::string field = FieldOf(r[c]);
      if (r[c].kind() == TypeKind::kString &&
          (!InferValue(field, false).GroupEquals(r[c]) || field.empty())) {
        AppendQuoted(&out, field);
      } else {
        AppendField(&out, field);
      }
    }
    out += '\n';
  }
  return out;
}

Result<Table> TableFromCsv(const std::string& csv, bool infer_types) {
  return ParseTable(csv, nullptr,
                    infer_types ? TypeKind::kNull : TypeKind::kString);
}

Status WriteCsvFile(const Table& table, const std::string& path) {
  return WriteTextFile(TableToCsv(table), path);
}

Result<Table> ReadCsvFile(const std::string& path, bool infer_types) {
  DV_ASSIGN_OR_RETURN(std::string csv, ReadTextFile(path));
  return TableFromCsv(csv, infer_types);
}

Status WriteCsvFileTyped(const Table& table, const std::string& path) {
  return WriteTextFile(TableToCsvTyped(table), path);
}

Result<Table> ReadCsvFileTyped(const std::string& path,
                               const std::vector<TypeKind>& column_types) {
  DV_ASSIGN_OR_RETURN(std::string csv, ReadTextFile(path));
  return TableFromCsvTyped(csv, column_types);
}

}  // namespace dynview
