#include "trace/block_source.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace hymem::trace {

BlockBuffer::BlockBuffer(std::uint64_t page_size, std::size_t capacity)
    : page_size_(page_size),
      shift_(std::has_single_bit(page_size) ? std::countr_zero(page_size)
                                            : -1) {
  HYMEM_CHECK_MSG(page_size > 0, "page size must be positive");
  if (capacity > 0) {
    // Guarded: GCC 12's -Wnull-dereference misfires on resize(0) at -O3.
    pages_.resize(capacity);
    types_.resize(capacity);
    hashes_.resize(capacity);
  }
}

TraceBlockSource::TraceBlockSource(const Trace& trace, std::uint64_t page_size,
                                   std::size_t block_accesses)
    : name_(trace.name()),
      page_size_(page_size),
      accesses_(trace.accesses()),
      buffer_(page_size, block_accesses == 0
                             ? accesses_.size()
                             : std::min(block_accesses, accesses_.size())) {}

const DecodedBlock* TraceBlockSource::next() {
  if (cursor_ >= accesses_.size()) return nullptr;
  const std::size_t n =
      std::min(buffer_.capacity(), accesses_.size() - cursor_);
  for (std::size_t i = 0; i < n; ++i) {
    buffer_.decode(i, accesses_[cursor_ + i]);
  }
  cursor_ += n;
  view_ = buffer_.view(n);
  return &view_;
}

StreamBlockSource::StreamBlockSource(std::istream& in, std::uint64_t page_size,
                                     std::size_t block_accesses,
                                     bool readahead)
    : reader_(in),
      page_size_(page_size),
      readahead_(readahead),
      buffers_{{BlockBuffer(page_size, block_accesses)},
               {BlockBuffer(page_size, block_accesses)}} {
  HYMEM_CHECK_MSG(block_accesses > 0, "block size must be positive");
  if (readahead_) start_producer();
}

StreamBlockSource::~StreamBlockSource() { stop_producer(); }

void StreamBlockSource::fill(Buffer& buf) {
  std::size_t n = 0;
  while (n < buf.decoded.capacity()) {
    const auto access = reader_.next();
    if (!access.has_value()) {
      buf.eof = true;
      break;
    }
    buf.decoded.decode(n++, *access);
  }
  buf.size = n;
}

void StreamBlockSource::producer_loop() {
  while (true) {
    std::unique_lock lock(mutex_);
    free_cv_.wait(lock, [this] {
      return stop_ || !buffers_[produce_index_].filled;
    });
    if (stop_) return;
    Buffer& buf = buffers_[produce_index_];
    buf.eof = false;
    lock.unlock();
    // Decode outside the lock: the consumer never touches an unfilled
    // buffer, so the producer owns it until the filled handoff below.
    try {
      fill(buf);
    } catch (...) {
      lock.lock();
      producer_error_ = std::current_exception();
      filled_cv_.notify_one();
      return;
    }
    lock.lock();
    buf.filled = true;
    filled_cv_.notify_one();
    if (buf.eof) return;  // Terminal block produced; nothing left to decode.
    produce_index_ ^= 1;
  }
}

void StreamBlockSource::start_producer() {
  stop_ = false;
  producer_error_ = nullptr;
  producer_ = std::thread([this] { producer_loop(); });
}

void StreamBlockSource::stop_producer() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  free_cv_.notify_all();
  if (producer_.joinable()) producer_.join();
}

const DecodedBlock* StreamBlockSource::next() {
  if (!readahead_) {
    if (holding_ >= 0) buffers_[static_cast<std::size_t>(holding_)].filled = false;
    holding_ = -1;
    if (finished_) return nullptr;
    Buffer& buf = buffers_[consume_index_];
    buf.eof = false;
    fill(buf);
    if (buf.eof) finished_ = true;
    if (buf.size == 0) return nullptr;
    view_ = buf.decoded.view(buf.size);
    holding_ = static_cast<int>(consume_index_);
    consume_index_ ^= 1;
    return &view_;
  }
  std::unique_lock lock(mutex_);
  if (holding_ >= 0) {
    buffers_[static_cast<std::size_t>(holding_)].filled = false;
    holding_ = -1;
    free_cv_.notify_one();
  }
  if (finished_) return nullptr;
  filled_cv_.wait(lock, [this] {
    return buffers_[consume_index_].filled || producer_error_ != nullptr;
  });
  if (producer_error_ != nullptr) {
    std::exception_ptr error = producer_error_;
    producer_error_ = nullptr;
    finished_ = true;
    std::rethrow_exception(error);
  }
  Buffer& buf = buffers_[consume_index_];
  if (buf.eof) finished_ = true;
  if (buf.size == 0) {
    buf.filled = false;
    return nullptr;
  }
  view_ = buf.decoded.view(buf.size);
  holding_ = static_cast<int>(consume_index_);
  consume_index_ ^= 1;
  return &view_;
}

void StreamBlockSource::rewind() {
  if (readahead_) stop_producer();
  reader_.rewind();
  for (Buffer& buf : buffers_) {
    buf.filled = false;
    buf.eof = false;
    buf.size = 0;
  }
  consume_index_ = 0;
  produce_index_ = 0;
  holding_ = -1;
  finished_ = false;
  if (readahead_) start_producer();
}

}  // namespace hymem::trace
