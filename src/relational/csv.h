#ifndef DYNVIEW_RELATIONAL_CSV_H_
#define DYNVIEW_RELATIONAL_CSV_H_

#include <string>

#include "common/result.h"
#include "relational/table.h"

namespace dynview {

/// CSV import/export for tables (RFC 4180 quoting), so federations can be
/// loaded from and results handed to external tooling. The header row
/// carries column names; empty unquoted fields read back as NULL.

/// Serializes `table` (header + rows). Strings are written unquoted unless
/// they contain a comma, quote or newline; quotes are doubled.
std::string TableToCsv(const Table& table);

/// Parses CSV text into a table. The first row is the header. With
/// `infer_types`, each field is parsed as (in order) NULL (empty), INT,
/// DOUBLE, BOOL (true/false), DATE (YYYY-MM-DD), else STRING; otherwise all
/// non-empty fields are strings.
Result<Table> TableFromCsv(const std::string& csv, bool infer_types);

/// File convenience wrappers.
Status WriteCsvFile(const Table& table, const std::string& path);
Result<Table> ReadCsvFile(const std::string& path, bool infer_types);

/// Typed round-trip layer (what SaveCatalog/LoadCatalog use). The untyped
/// functions above re-infer each field, which is lossy in three known ways:
/// a DOUBLE with an integral value reads back as INT, a double's display
/// rendering (%g) drops precision, and a single-column NULL row serializes
/// as a blank line the reader skips. The typed variants fix all three:
/// doubles are written with round-trip precision (shortest rendering that
/// parses back to the same bits), declared column types decide parsing
/// (kNull declares "infer like TableFromCsv"), and in single-column mode a
/// bare empty line is a NULL row, not a blank line.

std::string TableToCsvTyped(const Table& table);

/// The lines TableToCsvTyped is made of, each ending in '\n': the header
/// (column names, quoted only when needed) and one row.
void AppendCsvHeader(const Schema& schema, std::string* out);
void AppendTypedCsvRow(const Row& row, std::string* out);

/// `column_types` must match the header arity; type mismatches in the data
/// (e.g. "abc" under INT) are ParseErrors.
Result<Table> TableFromCsvTyped(const std::string& csv,
                                const std::vector<TypeKind>& column_types);

/// The dominant cell kind per column: the single kind every non-null cell
/// of the column has, or kNull when the column is empty or mixes kinds
/// (mixed columns fall back to inference on load, keeping today's
/// behavior). This is what SaveCatalog records in its manifest.
std::vector<TypeKind> ColumnKindsOf(const Table& table);

Status WriteCsvFileTyped(const Table& table, const std::string& path);
Result<Table> ReadCsvFileTyped(const std::string& path,
                               const std::vector<TypeKind>& column_types);

}  // namespace dynview

#endif  // DYNVIEW_RELATIONAL_CSV_H_
