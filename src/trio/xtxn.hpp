// External transactions (XTXNs): requests a PPE thread issues over the
// crossbar to other blocks — the Shared Memory System, the hardware hash
// block, the Memory & Queueing Subsystem (packet tails) — and their
// replies (paper §3.1 "External transaction").
//
// A block applies a request when it arrives and writes the reply into a
// caller-supplied XtxnReply at once, returning the time the reply reaches
// the thread; the PPE wakes the issuing thread then (docs/performance.md
// §7). Payloads of up to 64 bytes live inline in the request and reply.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <span>

namespace trio {

enum class XtxnOp : std::uint8_t {
  // Shared Memory System (read-modify-write engines, §2.3).
  kRead,          // addr, len -> len bytes of data (no size limit; result
                  // building reads 256 B)
  kWrite,         // addr, data
  kCounterInc,    // addr (16 B Packet/Byte counter), arg0 = packet bytes
  kPolicerCheck,  // addr (policer record), arg0 = packet bytes -> value: 1 conform / 0 exceed
  kFetchAdd32,    // addr, arg0 = addend -> value: previous 32-bit value
  kFetchAnd64,    // addr, arg0 = mask   -> value: previous value
  kFetchOr64,     // addr, arg0 = mask   -> value: previous value
  kFetchXor64,    // addr, arg0 = mask   -> value: previous value
  kFetchClear64,  // addr, arg0 = mask   -> value: previous value (clears bits)
  kFetchSwap64,   // addr, arg0 = new    -> value: previous value
  kMaskedWrite64, // addr, arg0 = value, arg1 = mask
  kAddVec32,      // addr, data = packed 32-bit little-endian addends
  kMinVec32,      // addr, data = packed 32-bit words; element-wise unsigned min
  kVoteVec32,     // addr = split-plane majority buffer (candidates at
                  // addr[0..len), counts at addr[len..2*len)), data = packed
                  // 32-bit words; streaming Boyer-Moore majority per element
  // Hardware hash block (§5): 64-bit key -> 64-bit value records with a
  // 'Recently Referenced' flag.
  kHashLookup,    // arg0 = key -> ok, value
  kHashInsert,    // arg0 = key, arg1 = value -> ok (false if key exists)
  kHashDelete,    // arg0 = key, arg1 = expected value (0 = any) -> ok
  kHashScanStep,  // arg0 = partition, arg1 = max records; check-and-clear
                  // REF over one partition slice; reply data = aged keys
  // Memory & Queueing Subsystem.
  kTailRead,      // addr = offset into this thread's packet tail, len <= 64
  kPmemWrite,     // len = bytes appended to the tail under construction
                  // (<= 256; the bytes stay with the emitting program)
};

/// True for ops whose reply carries no payload the issuing program needs,
/// so they may be issued fire-and-forget (async without a reply event).
constexpr bool xtxn_is_posted(XtxnOp op) {
  switch (op) {
    case XtxnOp::kWrite:
    case XtxnOp::kCounterInc:
    case XtxnOp::kAddVec32:
    case XtxnOp::kMinVec32:
    case XtxnOp::kVoteVec32:
    case XtxnOp::kMaskedWrite64:
    case XtxnOp::kPmemWrite:
      return true;
    default:
      return false;
  }
}

/// Stable lower-case name for telemetry (trace span / counter labels).
constexpr const char* xtxn_op_name(XtxnOp op) {
  switch (op) {
    case XtxnOp::kRead: return "read";
    case XtxnOp::kWrite: return "write";
    case XtxnOp::kCounterInc: return "counter_inc";
    case XtxnOp::kPolicerCheck: return "policer_check";
    case XtxnOp::kFetchAdd32: return "fetch_add32";
    case XtxnOp::kFetchAnd64: return "fetch_and64";
    case XtxnOp::kFetchOr64: return "fetch_or64";
    case XtxnOp::kFetchXor64: return "fetch_xor64";
    case XtxnOp::kFetchClear64: return "fetch_clear64";
    case XtxnOp::kFetchSwap64: return "fetch_swap64";
    case XtxnOp::kMaskedWrite64: return "masked_write64";
    case XtxnOp::kAddVec32: return "add_vec32";
    case XtxnOp::kMinVec32: return "min_vec32";
    case XtxnOp::kVoteVec32: return "vote_vec32";
    case XtxnOp::kHashLookup: return "hash_lookup";
    case XtxnOp::kHashInsert: return "hash_insert";
    case XtxnOp::kHashDelete: return "hash_delete";
    case XtxnOp::kHashScanStep: return "hash_scan_step";
    case XtxnOp::kTailRead: return "tail_read";
    case XtxnOp::kPmemWrite: return "pmem_write";
  }
  return "unknown";
}

/// An XTXN's byte payload. Up to kInlineBytes — the SMS bank granule and
/// the MQSS tail chunk — live inside the object; a longer payload (a
/// 256-byte result-builder read, a hash-scan key list, a netrpc merge
/// preset) spills to one heap buffer, which the payload keeps and reuses
/// for every later size.
class XtxnPayload {
 public:
  static constexpr std::size_t kInlineBytes = 64;

  XtxnPayload() = default;
  XtxnPayload(std::initializer_list<std::uint8_t> bytes) {
    assign(std::span<const std::uint8_t>(bytes.begin(), bytes.size()));
  }
  XtxnPayload(std::span<const std::uint8_t> bytes) {  // NOLINT(google-explicit-constructor)
    assign(bytes);
  }
  XtxnPayload(const XtxnPayload& other) { assign(other); }
  XtxnPayload(XtxnPayload&& other) noexcept { *this = std::move(other); }
  XtxnPayload& operator=(const XtxnPayload& other) {
    if (this != &other) assign(other);
    return *this;
  }
  XtxnPayload& operator=(XtxnPayload&& other) noexcept {
    if (this == &other) return *this;
    if (other.heap_ != nullptr) {
      // Trade buffers, so neither side frees one.
      std::swap(heap_, other.heap_);
      std::swap(heap_capacity_, other.heap_capacity_);
      size_ = other.size_;
    } else {
      // Fits any buffer this side has: a heap buffer exceeds kInlineBytes.
      std::memcpy(data(), other.data(), other.size_);
      size_ = other.size_;
    }
    other.size_ = 0;
    return *this;
  }
  XtxnPayload& operator=(std::span<const std::uint8_t> bytes) {
    assign(bytes);
    return *this;
  }
  XtxnPayload& operator=(std::initializer_list<std::uint8_t> bytes) {
    assign(std::span<const std::uint8_t>(bytes.begin(), bytes.size()));
    return *this;
  }
  ~XtxnPayload() { delete[] heap_; }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint8_t* data() { return heap_ != nullptr ? heap_ : inline_; }
  const std::uint8_t* data() const {
    return heap_ != nullptr ? heap_ : inline_;
  }
  std::uint8_t* begin() { return data(); }
  std::uint8_t* end() { return data() + size_; }
  const std::uint8_t* begin() const { return data(); }
  const std::uint8_t* end() const { return data() + size_; }
  std::uint8_t& operator[](std::size_t i) { return data()[i]; }
  const std::uint8_t& operator[](std::size_t i) const { return data()[i]; }

  void clear() { size_ = 0; }
  /// Resizes to `n` bytes; bytes past the old size read `fill`.
  void resize(std::size_t n, std::uint8_t fill = 0) {
    reserve(n);
    if (n > size_) std::memset(data() + size_, fill, n - size_);
    size_ = static_cast<std::uint32_t>(n);
  }
  void assign(std::size_t n, std::uint8_t value) {
    clear();
    resize(n, value);
  }
  void assign(std::span<const std::uint8_t> bytes) {
    reserve(bytes.size());
    if (!bytes.empty()) std::memcpy(data(), bytes.data(), bytes.size());
    size_ = static_cast<std::uint32_t>(bytes.size());
  }
  void append(std::span<const std::uint8_t> bytes) {
    reserve(size_ + bytes.size());
    if (!bytes.empty()) std::memcpy(data() + size_, bytes.data(), bytes.size());
    size_ += static_cast<std::uint32_t>(bytes.size());
  }

  friend bool operator==(const XtxnPayload& a, const XtxnPayload& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  std::size_t capacity() const {
    return heap_ != nullptr ? heap_capacity_ : kInlineBytes;
  }
  void reserve(std::size_t n) {
    if (n <= capacity()) return;
    const std::size_t cap = std::max(n, 2 * capacity());
    auto* next = new std::uint8_t[cap];
    std::memcpy(next, data(), size_);
    delete[] heap_;
    heap_ = next;
    heap_capacity_ = static_cast<std::uint32_t>(cap);
  }

  std::uint8_t* heap_ = nullptr;  // once set, holds every later size
  std::uint32_t size_ = 0;
  std::uint32_t heap_capacity_ = 0;
  std::uint8_t inline_[kInlineBytes];
};

struct XtxnRequest {
  XtxnOp op{};
  std::uint32_t len = 0;
  std::uint64_t addr = 0;
  std::uint64_t arg0 = 0;
  std::uint64_t arg1 = 0;
  XtxnPayload data;
};

struct XtxnReply {
  bool ok = true;
  std::uint64_t value = 0;
  XtxnPayload data;

  /// Back to a fresh reply (ok, value 0, no data), keeping the payload's
  /// buffer.
  void reset() {
    ok = true;
    value = 0;
    data.clear();
  }
  friend bool operator==(const XtxnReply&, const XtxnReply&) = default;
};

}  // namespace trio
