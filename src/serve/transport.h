/// \file transport.h
/// \brief Byte-level NDJSON transport primitives for the serve daemon:
/// buffered line framing over POSIX fds, nothing protocol- or query-aware.
/// Server (serve/server.h) reads request lines with LineReader and writes
/// response batches with WriteAll.

#pragma once

#include <csignal>
#include <cstddef>
#include <string>

namespace infoflow::serve {

/// Longest request line LineReader buffers (1 MiB, newline excluded). A
/// longer line is discarded up to its newline and delivered as an empty
/// line flagged by LineReader::oversized(), so a stream that never sends a
/// newline cannot grow the buffer without bound.
inline constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20;

/// \brief Buffered line reader over a POSIX fd. Buffers at most
/// kMaxLineBytes of one unterminated line plus one read chunk.
class LineReader {
 public:
  /// When `interrupt` is non-null, blocking reads poll in short slices and
  /// treat `*interrupt != 0` as EOF — the serve daemon points this at its
  /// SIGTERM/SIGINT flag so a signal unwinds the loop instead of leaving it
  /// parked in read(2).
  explicit LineReader(int fd,
                      const volatile std::sig_atomic_t* interrupt = nullptr)
      : fd_(fd), interrupt_(interrupt) {}

  /// Blocking: pops the next line (without '\n'); false at EOF. A final
  /// unterminated line is still delivered.
  bool NextLine(std::string& line);

  /// True when the line just popped was longer than kMaxLineBytes: its
  /// bytes were dropped and `line` is empty.
  bool oversized() const { return oversized_; }

  /// Non-blocking: pops a line only if one is already buffered or the fd
  /// has readable data that completes one; false otherwise (never blocks
  /// past a single read of already-available bytes).
  bool TryNextLine(std::string& line);

 private:
  /// Pops the next complete line after head_; false when none is buffered.
  bool PopBufferedLine(std::string& line);
  /// Pops the unterminated tail left at EOF; false when nothing is left.
  bool PopRemainder(std::string& line);
  bool Readable() const;
  /// One read(2) into the buffer; flips eof_ at end-of-stream or error.
  void FillOnce();

  /// True when the interrupt flag (if any) has been raised.
  bool Interrupted() const { return interrupt_ != nullptr && *interrupt_ != 0; }

  int fd_;
  const volatile std::sig_atomic_t* interrupt_ = nullptr;
  /// Bytes read but not yet popped start at buffer_[head_]; FillOnce
  /// compacts the consumed prefix away.
  std::string buffer_;
  std::size_t head_ = 0;
  bool eof_ = false;
  /// Dropping the bytes of an over-long line until its newline (or EOF).
  bool discarding_ = false;
  bool oversized_ = false;
};

/// Writes all of `data`, retrying partial writes; false on error.
bool WriteAll(int fd, const std::string& data);

}  // namespace infoflow::serve
