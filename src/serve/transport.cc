#include "serve/transport.h"

#include <cerrno>

#include <poll.h>
#include <unistd.h>

namespace infoflow::serve {

bool LineReader::NextLine(std::string& line) {
  while (true) {
    if (PopBufferedLine(line)) return true;
    if (eof_) return PopRemainder(line);
    if (interrupt_ != nullptr) {
      // Poll in short slices so a raised flag reads as EOF instead of
      // leaving the loop parked in read(2) past the signal.
      while (true) {
        if (Interrupted()) {
          eof_ = true;
          break;
        }
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = poll(&pfd, 1, 100);
        if (ready > 0) break;
        if (ready < 0 && errno != EINTR) {
          eof_ = true;
          break;
        }
      }
      if (eof_) continue;
    }
    FillOnce();
  }
}

bool LineReader::TryNextLine(std::string& line) {
  if (PopBufferedLine(line)) return true;
  while (!eof_ && Readable()) {
    FillOnce();
    if (PopBufferedLine(line)) return true;
  }
  return eof_ && PopRemainder(line);
}

bool LineReader::PopBufferedLine(std::string& line) {
  const std::size_t pos = buffer_.find('\n', head_);
  if (pos == std::string::npos) {
    // Only the unterminated tail is buffered; past the cap it is dropped
    // and the rest of its line is skipped as it arrives.
    if (discarding_ || buffer_.size() - head_ > kMaxLineBytes) {
      discarding_ = true;
      buffer_.clear();
      head_ = 0;
    }
    return false;
  }
  oversized_ = discarding_ || pos - head_ > kMaxLineBytes;
  discarding_ = false;
  if (oversized_) {
    line.clear();
  } else {
    line.assign(buffer_, head_, pos - head_);
  }
  head_ = pos + 1;
  return true;
}

bool LineReader::PopRemainder(std::string& line) {
  if (head_ == buffer_.size() && !discarding_) return false;
  oversized_ = discarding_ || buffer_.size() - head_ > kMaxLineBytes;
  discarding_ = false;
  if (oversized_) {
    line.clear();
  } else {
    line.assign(buffer_, head_);
  }
  buffer_.clear();
  head_ = 0;
  return true;
}

bool LineReader::Readable() const {
  pollfd pfd{fd_, POLLIN, 0};
  return poll(&pfd, 1, 0) > 0;
}

void LineReader::FillOnce() {
  // Drop the lines already popped once per read, not once per line.
  buffer_.erase(0, head_);
  head_ = 0;
  char chunk[65536];
  ssize_t got;
  do {
    got = read(fd_, chunk, sizeof(chunk));
  } while (got < 0 && errno == EINTR);
  if (got <= 0) {
    eof_ = true;  // EOF or unrecoverable error: drain and stop.
    return;
  }
  buffer_.append(chunk, static_cast<std::size_t>(got));
}

bool WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t put = write(fd, data.data() + off, data.size() - off);
    if (put < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(put);
  }
  return true;
}

}  // namespace infoflow::serve
