#ifndef FLAY_CONTROLLER_WAL_H
#define FLAY_CONTROLLER_WAL_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "runtime/device_config.h"

namespace flay::controller {

/// One journal record. The journal is JSONL: one JSON object per line,
/// e.g. {"seq":4,"type":"update","text":"insert Ingress.fwd [...] -> fwd(...)"}.
struct JournalRecord {
  enum class Type { kBegin, kUpdate, kCommit, kAbort, kCheckpoint,
                    kIfcViolation };
  Type type = Type::kUpdate;
  uint64_t seq = 0;
  std::string text;  // kUpdate: Update wire text; kIfcViolation: flow line
  size_t n = 0;      // kBegin: updates in the transaction
  std::string file;  // kCheckpoint: checkpoint file name (relative to dir)
};

/// Append-only write-ahead journal with transactional group markers. Every
/// applied group is bracketed begin/commit; a group missing its commit (the
/// process died mid-apply, or the apply aborted) is skipped on replay, which
/// is exactly the transactional contract: recovery lands on the last
/// committed state.
///
/// Group commit: begin and update records only enter the stdio buffer. The
/// records that end a group or mark a recovery point (commit, abort,
/// checkpoint, ifc) are fsync'd at commit: they flush the buffer and fsync
/// once, so each transaction costs one fsync and a committed group survives
/// SIGKILL and power loss together with every record before it.
///
/// A failed write, flush or fsync throws std::runtime_error and leaves the
/// journal failed: every later append throws too, so the caller never
/// acknowledges another transaction. The group whose sync failed may or may
/// not appear after recovery (the kernel may have written some of it) —
/// the same outcome as a crash between the commit write and the return.
class Journal {
 public:
  explicit Journal(std::string path) : path_(std::move(path)) {}
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens for appending, continuing the sequence after the intact prefix.
  /// A torn tail (a record cut short by a crash) is truncated away first, so
  /// the next record starts on a line of its own.
  void open();
  void close();
  bool isOpen() const { return file_ != nullptr; }

  uint64_t appendBegin(size_t n);
  uint64_t appendUpdate(const runtime::Update& update);
  uint64_t appendCommit();
  uint64_t appendAbort();
  uint64_t appendCheckpoint(const std::string& checkpointFile);
  /// Journals an information-flow violation surfaced by the IFC analysis
  /// after a committed apply. Purely an audit record: replay ignores it
  /// (verdicts are re-derived from the recovered state, not trusted from
  /// the log).
  uint64_t appendIfcViolation(const std::string& flowText);

  uint64_t lastSeq() const { return seq_; }
  const std::string& path() const { return path_; }

  /// Loads every parseable record. Torn-tail tolerant: reading stops at the
  /// first malformed, truncated or unterminated line (an append cut short by
  /// a crash) — everything before it is intact because appends are
  /// sequential.
  static std::vector<JournalRecord> load(const std::string& path);

 private:
  /// Buffers one record; does not flush.
  uint64_t append(const std::string& body);
  /// Flushes the buffer and fsyncs: the group commit point.
  void sync();
  /// Throws (and fails the journal) when `ok` is false.
  void check(bool ok, const char* what);
  /// load(), also reporting the byte length of the intact prefix.
  static std::vector<JournalRecord> loadPrefix(const std::string& path,
                                               uint64_t* intactBytes);

  std::string path_;
  std::FILE* file_ = nullptr;
  uint64_t seq_ = 0;
  bool failed_ = false;
};

/// Point-in-time snapshot of a DeviceConfig, written atomically (temp file +
/// rename) with an explicit end marker so a torn checkpoint is detectable
/// and recovery falls back to an older one. Entries are stored with their
/// ids and each table's next-id allocator state, so updates journaled after
/// the checkpoint replay against the exact same id sequence they originally
/// saw.
struct Checkpoint {
  /// Sequence number of the last journal record covered by this checkpoint.
  uint64_t seq = 0;

  static void write(const std::string& path,
                    const runtime::DeviceConfig& config, uint64_t seq);
  /// Loads into a fresh config for `checked`; throws std::runtime_error on a
  /// missing/torn/malformed file.
  static runtime::DeviceConfig load(const std::string& path,
                                    const p4::CheckedProgram& checked,
                                    uint64_t* seq);
};

}  // namespace flay::controller

#endif  // FLAY_CONTROLLER_WAL_H
