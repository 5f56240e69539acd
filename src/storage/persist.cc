#include "storage/persist.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "net/codec.h"

namespace datacell::storage {

namespace fs = std::filesystem;

namespace {
constexpr const char* kExtension = ".dct";
constexpr const char* kTmpSuffix = ".tmp";
// Tuples LoadTable decodes per batch before appending them to the table.
constexpr size_t kLoadBatchRows = 4096;

Status IOErrno(const std::string& what) {
  return Status::IOError(what + ": " + std::strerror(errno));
}

// Makes a rename in `dir` durable: without the directory fsync the new
// name itself can be lost in a crash even though the file data survived.
Status SyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IOErrno("cannot open directory '" + dir + "'");
  Status st = Status::OK();
  if (::fsync(fd) != 0) st = IOErrno("fsync directory '" + dir + "'");
  ::close(fd);
  return st;
}

}  // namespace

Status SaveTable(const Table& table, const std::string& path) {
  // Crash-atomic: write <path>.tmp, fsync it, then rename over <path>.
  // A crash at any point leaves either the complete old file or the
  // complete new one — never a torn or missing table.
  const std::string tmp = path + kTmpSuffix;
  net::Codec codec(table.schema());
  std::string payload = codec.EncodeSchemaHeader();
  payload.push_back('\n');
  ASSIGN_OR_RETURN(std::string rows, codec.EncodeTable(table));
  payload += rows;

  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IOErrno("cannot open '" + tmp + "' for writing");
  size_t done = 0;
  while (done < payload.size()) {
    ssize_t n = ::write(fd, payload.data() + done, payload.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      Status st = IOErrno("write failed for '" + tmp + "'");
      ::close(fd);
      ::unlink(tmp.c_str());
      return st;
    }
    done += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    Status st = IOErrno("fsync failed for '" + tmp + "'");
    ::close(fd);
    ::unlink(tmp.c_str());
    return st;
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = IOErrno("cannot rename '" + tmp + "' to '" + path + "'");
    ::unlink(tmp.c_str());
    return st;
  }
  const std::string dir = fs::path(path).parent_path().string();
  return SyncDir(dir.empty() ? "." : dir);
}

Result<Table> LoadTable(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();
  if (content.empty()) {
    return Status::IOError("missing schema header in '" + path + "'");
  }
  const size_t header_end = content.find('\n');
  if (header_end == std::string::npos) {
    return Status::ParseError("'" + path +
                              "' truncated mid-header at byte 0 "
                              "(crash-torn file)");
  }
  ASSIGN_OR_RETURN(Schema schema,
                   net::Codec::DecodeSchemaHeader(
                       std::string_view(content).substr(0, header_end)));
  net::Codec codec(schema);
  net::BatchDecoder decoder(&codec);
  Table table(schema);
  size_t pos = header_end + 1;
  size_t line_no = 1;
  while (pos < content.size()) {
    ++line_no;
    const size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) {
      // A tuple line with no terminating newline can only come from a
      // crash mid-write (SaveTable always ends files with '\n'). Torn
      // data is an error, not a silently shorter table.
      return Status::ParseError(
          "'" + path + "' truncated mid-tuple at byte " + std::to_string(pos) +
          " (crash-torn file)");
    }
    // Note: empty lines are decoded like any other — for most schemas the
    // arity check rejects them (catching torn/blank junk), while a
    // single-string-column table legitimately encodes an empty value as an
    // empty line and must round-trip.
    Status st = decoder.Add(
        std::string_view(content).substr(pos, eol - pos));
    if (!st.ok()) {
      return Status::ParseError("'" + path + "' line " +
                                std::to_string(line_no) + ": " + st.message());
    }
    pos = eol + 1;
    // Bounded lanes: a large file is never held twice over.
    if (decoder.rows() == kLoadBatchRows) RETURN_NOT_OK(decoder.Flush(&table));
  }
  RETURN_NOT_OK(decoder.Flush(&table));
  return table;
}

Status SaveCatalog(const Catalog& catalog, const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create directory '" + dir +
                           "': " + ec.message());
  }
  // Save first, remove stale files last: until every new table is durable
  // on disk, nothing previously durable is deleted. A crash mid-save
  // leaves a loadable mixture of old and new tables, never a hole.
  std::set<std::string> current;
  for (const std::string& name : catalog.ListTables()) {
    ASSIGN_OR_RETURN(auto table, catalog.GetTable(name));
    RETURN_NOT_OK(
        SaveTable(*table, (fs::path(dir) / (name + kExtension)).string()));
    current.insert(name + kExtension);
  }
  // Now drop genuinely-stale files: .dct files for tables no longer in the
  // catalog, plus any .tmp leftovers from an interrupted earlier save.
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    const fs::path& p = entry.path();
    if (p.extension() == kTmpSuffix) {
      fs::remove(p, ec);
      continue;
    }
    if (p.extension() == kExtension && current.count(p.filename()) == 0) {
      fs::remove(p, ec);
    }
  }
  return SyncDir(dir);
}

Status LoadCatalog(Catalog* catalog, const std::string& dir) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::NotFound("no such directory: '" + dir + "'");
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().extension() == kExtension) files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& file : files) {
    ASSIGN_OR_RETURN(Table table, LoadTable(file.string()));
    const std::string name = file.stem().string();
    ASSIGN_OR_RETURN(auto created, catalog->CreateTable(name, table.schema()));
    RETURN_NOT_OK(created->AppendTable(table));
  }
  return Status::OK();
}

}  // namespace datacell::storage
