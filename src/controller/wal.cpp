#include "controller/wal.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/obs.h"

namespace flay::controller {

namespace {

struct JournalObs {
  obs::Registry& reg = obs::Registry::global();
  /// Every record appended, synced or not.
  obs::Counter& records = reg.counter("controller.journal_records");
  /// Group commits: one flush + fsync per commit/abort/checkpoint/ifc.
  obs::Counter& syncs = reg.counter("controller.journal_syncs");
  obs::Histogram& syncUs = reg.histogram("controller.journal_sync_us");

  static JournalObs& get() {
    static JournalObs instance;
    return instance;
  }
};

/// Journal lines are JSON; update text contains no quotes or control
/// characters today, but escape defensively so the format stays valid if a
/// future renderer changes that.
std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// Minimal cursor-based reader for the records this writer emits. Any
/// mismatch returns false — the caller treats the line as a torn tail.
struct LineParser {
  std::string_view s;
  size_t pos = 0;

  bool literal(std::string_view lit) {
    if (s.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }
  bool number(uint64_t* out) {
    if (pos >= s.size() || s[pos] < '0' || s[pos] > '9') return false;
    uint64_t v = 0;
    while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9') {
      v = v * 10 + static_cast<uint64_t>(s[pos] - '0');
      ++pos;
    }
    *out = v;
    return true;
  }
  bool quoted(std::string* out) {
    if (!literal("\"")) return false;
    out->clear();
    while (pos < s.size() && s[pos] != '"') {
      if (s[pos] == '\\') {
        ++pos;
        if (pos >= s.size()) return false;
        *out += s[pos] == 'n' ? '\n' : s[pos];
      } else {
        *out += s[pos];
      }
      ++pos;
    }
    return literal("\"");
  }
};

bool parseLine(std::string_view line, JournalRecord* rec) {
  LineParser p{line};
  if (!p.literal("{\"seq\":")) return false;
  if (!p.number(&rec->seq)) return false;
  if (!p.literal(",\"type\":\"")) return false;
  std::string type;
  while (p.pos < line.size() && line[p.pos] != '"') type += line[p.pos++];
  if (!p.literal("\"")) return false;
  if (type == "begin") {
    rec->type = JournalRecord::Type::kBegin;
    uint64_t n = 0;
    if (!p.literal(",\"n\":") || !p.number(&n)) return false;
    rec->n = static_cast<size_t>(n);
  } else if (type == "update") {
    rec->type = JournalRecord::Type::kUpdate;
    if (!p.literal(",\"text\":") || !p.quoted(&rec->text)) return false;
  } else if (type == "commit") {
    rec->type = JournalRecord::Type::kCommit;
  } else if (type == "abort") {
    rec->type = JournalRecord::Type::kAbort;
  } else if (type == "checkpoint") {
    rec->type = JournalRecord::Type::kCheckpoint;
    if (!p.literal(",\"file\":") || !p.quoted(&rec->file)) return false;
  } else if (type == "ifc") {
    rec->type = JournalRecord::Type::kIfcViolation;
    if (!p.literal(",\"text\":") || !p.quoted(&rec->text)) return false;
  } else {
    return false;
  }
  return p.literal("}") && p.pos == line.size();
}

}  // namespace

Journal::~Journal() { close(); }

void Journal::open() {
  if (file_ != nullptr) return;
  // Continue the sequence after whatever intact prefix already exists, and
  // cut any torn tail: appending after it would glue the next record onto
  // the torn line, and a later recovery would stop there and lose it.
  uint64_t intactBytes = 0;
  for (const JournalRecord& rec : loadPrefix(path_, &intactBytes)) {
    seq_ = rec.seq;
  }
  std::error_code ec;
  uint64_t size = std::filesystem::file_size(path_, ec);
  if (!ec && size > intactBytes &&
      ::truncate(path_.c_str(), static_cast<off_t>(intactBytes)) != 0) {
    throw std::runtime_error("cannot truncate torn journal tail '" + path_ +
                             "': " + std::strerror(errno));
  }
  file_ = std::fopen(path_.c_str(), "ab");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open journal '" + path_ + "'");
  }
}

void Journal::close() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
}

void Journal::check(bool ok, const char* what) {
  if (ok) return;
  int err = errno;
  failed_ = true;
  throw std::runtime_error(std::string("journal ") + what + " failed: " +
                           path_ + ": " + std::strerror(err));
}

uint64_t Journal::append(const std::string& body) {
  if (file_ == nullptr) {
    throw std::runtime_error("journal '" + path_ + "' is not open");
  }
  if (failed_) {
    throw std::runtime_error("journal '" + path_ +
                             "' failed earlier; restart to recover");
  }
  uint64_t seq = ++seq_;
  std::string line = "{\"seq\":" + std::to_string(seq) + "," + body + "}\n";
  check(std::fwrite(line.data(), 1, line.size(), file_) == line.size(),
        "write");
  JournalObs::get().records.add(1);
  return seq;
}

void Journal::sync() {
  JournalObs& jobs = JournalObs::get();
  obs::ScopedTimer timer(jobs.syncUs, "controller.journal_sync");
  // fflush hands the group to the OS (survives SIGKILL of this process);
  // fsync puts it on the disk (survives power loss).
  check(std::fflush(file_) == 0, "flush");
  check(::fsync(fileno(file_)) == 0, "fsync");
  jobs.syncs.add(1);
}

uint64_t Journal::appendBegin(size_t n) {
  return append("\"type\":\"begin\",\"n\":" + std::to_string(n));
}

uint64_t Journal::appendUpdate(const runtime::Update& update) {
  return append("\"type\":\"update\",\"text\":\"" +
                jsonEscape(update.toString()) + "\"");
}

uint64_t Journal::appendCommit() {
  uint64_t seq = append("\"type\":\"commit\"");
  sync();
  return seq;
}

uint64_t Journal::appendAbort() {
  // A group without a commit never replays, so the abort need not be
  // durable; it syncs anyway to keep the rule "every group end syncs".
  uint64_t seq = append("\"type\":\"abort\"");
  sync();
  return seq;
}

uint64_t Journal::appendCheckpoint(const std::string& checkpointFile) {
  uint64_t seq = append("\"type\":\"checkpoint\",\"file\":\"" +
                        jsonEscape(checkpointFile) + "\"");
  sync();
  return seq;
}

uint64_t Journal::appendIfcViolation(const std::string& flowText) {
  uint64_t seq =
      append("\"type\":\"ifc\",\"text\":\"" + jsonEscape(flowText) + "\"");
  sync();
  return seq;
}

std::vector<JournalRecord> Journal::load(const std::string& path) {
  uint64_t intactBytes = 0;
  return loadPrefix(path, &intactBytes);
}

std::vector<JournalRecord> Journal::loadPrefix(const std::string& path,
                                               uint64_t* intactBytes) {
  std::vector<JournalRecord> records;
  *intactBytes = 0;
  std::ifstream in(path);
  if (!in) return records;
  std::string line;
  while (std::getline(in, line)) {
    // A line without its newline was cut mid-append, however it parses.
    if (in.eof()) break;
    JournalRecord rec;
    if (!parseLine(line, &rec)) break;  // torn tail: stop, keep the prefix
    records.push_back(std::move(rec));
    *intactBytes += line.size() + 1;
  }
  return records;
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

void Checkpoint::write(const std::string& path,
                       const runtime::DeviceConfig& config, uint64_t seq) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write checkpoint '" + tmp + "'");
    out << "flay-checkpoint v1\n";
    out << "seq " << seq << "\n";
    for (const auto& [name, table] : config.tables()) {
      for (const runtime::TableEntry& e : table.entries()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kInsert;
        u.target = name;
        u.entry = e;
        out << "entry " << e.id << " " << u.toString() << "\n";
      }
      runtime::Update d;
      d.kind = runtime::Update::Kind::kSetDefaultAction;
      d.target = name;
      d.actionName = table.defaultActionName();
      d.actionArgs = table.defaultActionArgs();
      out << "u " << d.toString() << "\n";
      // After the entries so restoreEntry's bumping is then pinned exactly.
      out << "nextid " << name << " " << table.nextId() << "\n";
    }
    for (const auto& [name, vs] : config.valueSets()) {
      for (const auto& [value, mask] : vs.members()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kValueSetInsert;
        u.target = name;
        u.value = value;
        u.mask = mask;
        out << "u " << u.toString() << "\n";
      }
    }
    for (const auto& [name, prof] : config.actionProfiles()) {
      for (const auto& m : prof.members()) {
        runtime::Update u;
        u.kind = runtime::Update::Kind::kProfileAdd;
        u.target = name;
        u.member = m;
        out << "u " << u.toString() << "\n";
      }
    }
    out << "end\n";
    out.flush();
    if (!out) throw std::runtime_error("checkpoint write failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint rename failed: " + path);
  }
  obs::Registry::global().counter("controller.checkpoints").add(1);
}

runtime::DeviceConfig Checkpoint::load(const std::string& path,
                                       const p4::CheckedProgram& checked,
                                       uint64_t* seq) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read checkpoint '" + path + "'");
  std::string line;
  if (!std::getline(in, line) || line != "flay-checkpoint v1") {
    throw std::runtime_error("bad checkpoint header in '" + path + "'");
  }
  if (!std::getline(in, line) || line.substr(0, 4) != "seq ") {
    throw std::runtime_error("missing seq in checkpoint '" + path + "'");
  }
  *seq = std::stoull(line.substr(4));
  runtime::DeviceConfig config(checked);
  bool sawEnd = false;
  while (std::getline(in, line)) {
    if (line == "end") {
      sawEnd = true;
      break;
    }
    if (line.substr(0, 6) == "entry ") {
      size_t sp = line.find(' ', 6);
      if (sp == std::string::npos) {
        throw std::runtime_error("bad entry line in checkpoint '" + path + "'");
      }
      uint64_t id = std::stoull(line.substr(6, sp - 6));
      runtime::Update u =
          runtime::Update::fromString(checked, line.substr(sp + 1));
      u.entry.id = id;
      config.table(u.target).restoreEntry(u.entry);
    } else if (line.substr(0, 2) == "u ") {
      config.apply(runtime::Update::fromString(checked, line.substr(2)));
    } else if (line.substr(0, 7) == "nextid ") {
      size_t sp = line.find(' ', 7);
      if (sp == std::string::npos) {
        throw std::runtime_error("bad nextid line in checkpoint '" + path + "'");
      }
      config.table(line.substr(7, sp - 7))
          .setNextId(std::stoull(line.substr(sp + 1)));
    } else {
      throw std::runtime_error("unknown checkpoint line: " + line);
    }
  }
  if (!sawEnd) {
    throw std::runtime_error("torn checkpoint (no end marker): '" + path + "'");
  }
  return config;
}

}  // namespace flay::controller
