#include "perfbench/src/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>

namespace perfbench {

namespace {
constexpr int kTimeoutS = 5;
}  // namespace

HttpConn::~HttpConn() { Close(); }

void HttpConn::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

bool HttpConn::Connect() {
  Close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // A response that never comes fails the request instead of the run.
  timeval timeout{kTimeoutS, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  return true;
}

bool HttpConn::RoundTrip(std::string_view method, std::string_view target,
                         std::string_view body, std::string_view content_type,
                         int* status, std::string* response_body) {
  std::string request;
  request.reserve(128 + body.size());
  request.append(method).append(" ").append(target).append(
      " HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: ");
  request.append(content_type).append("\r\nContent-Length: ");
  request.append(std::to_string(body.size())).append("\r\n\r\n").append(body);
  // A keep-alive connection the server closed fails on first use; retry
  // once on a fresh connection.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (fd_ < 0 && !Connect()) return false;
    if (Once(request, status, response_body)) return true;
    Close();
  }
  return false;
}

bool HttpConn::Once(const std::string& request, int* status,
                    std::string* body) {
  for (size_t sent = 0; sent < request.size();) {
    const ssize_t n = ::send(fd_, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  auto fill = [&] {
    char chunk[16384];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  };
  size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
    if (!fill()) return false;
  }
  const std::string head = buffer_.substr(0, head_end);
  // "HTTP/1.1 200 OK"
  const size_t sp = head.find(' ');
  if (sp == std::string::npos) return false;
  *status = std::atoi(head.c_str() + sp + 1);
  size_t length = 0;
  bool close = false;
  std::string lower(head);
  for (char& c : lower) c = static_cast<char>(std::tolower(c));
  if (size_t at = lower.find("\r\ncontent-length:"); at != std::string::npos) {
    length = std::strtoul(lower.c_str() + at + 17, nullptr, 10);
  }
  if (lower.find("\r\nconnection: close") != std::string::npos) close = true;
  const size_t total = head_end + 4 + length;
  while (buffer_.size() < total) {
    if (!fill()) return false;
  }
  body->assign(buffer_, head_end + 4, length);
  buffer_.erase(0, total);
  if (close) Close();
  return true;
}

// --- JSON ------------------------------------------------------------------

const Json& Json::operator[](std::string_view key) const {
  static const Json kNullValue;
  for (const auto& [k, v] : object) {
    if (k == key) return v;
  }
  return kNullValue;
}

namespace {

struct Reader {
  const char* p;
  const char* end;

  void Space() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool Literal(const char* word) {
    const size_t n = std::strlen(word);
    if (static_cast<size_t>(end - p) < n || std::strncmp(p, word, n) != 0) {
      return false;
    }
    p += n;
    return true;
  }
  bool String(std::string* out) {
    if (p >= end || *p != '"') return false;
    ++p;
    while (p < end && *p != '"') {
      if (*p == '\\') {
        if (++p >= end) return false;
        switch (*p) {
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u': {
            // Only code points below 0x80 matter for comparing answers;
            // others are kept as '?'.
            if (end - p < 5) return false;
            const long cp = std::strtol(std::string(p + 1, 4).c_str(), nullptr, 16);
            out->push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
            p += 4;
            break;
          }
          default: out->push_back(*p);
        }
        ++p;
      } else {
        out->push_back(*p++);
      }
    }
    if (p >= end) return false;
    ++p;
    return true;
  }
  bool Value(Json* v, int depth) {
    if (depth > 64) return false;
    Space();
    if (p >= end) return false;
    switch (*p) {
      case '{': {
        v->type = Json::kObject;
        ++p;
        Space();
        if (p < end && *p == '}') return ++p, true;
        for (;;) {
          Space();
          std::string key;
          if (!String(&key)) return false;
          Space();
          if (p >= end || *p++ != ':') return false;
          Json member;
          if (!Value(&member, depth + 1)) return false;
          v->object.emplace_back(std::move(key), std::move(member));
          Space();
          if (p < end && *p == ',') { ++p; continue; }
          if (p < end && *p == '}') return ++p, true;
          return false;
        }
      }
      case '[': {
        v->type = Json::kArray;
        ++p;
        Space();
        if (p < end && *p == ']') return ++p, true;
        for (;;) {
          Json item;
          if (!Value(&item, depth + 1)) return false;
          v->array.push_back(std::move(item));
          Space();
          if (p < end && *p == ',') { ++p; continue; }
          if (p < end && *p == ']') return ++p, true;
          return false;
        }
      }
      case '"':
        v->type = Json::kString;
        return String(&v->string);
      case 't':
        v->type = Json::kBool;
        v->boolean = true;
        return Literal("true");
      case 'f':
        v->type = Json::kBool;
        return Literal("false");
      case 'n':
        return Literal("null");
      default: {
        char* stop = nullptr;
        const std::string num(p, std::min<size_t>(end - p, 64));
        v->number = std::strtod(num.c_str(), &stop);
        if (stop == num.c_str()) return false;
        v->type = Json::kNumber;
        p += stop - num.c_str();
        return true;
      }
    }
  }
};

}  // namespace

bool Json::Parse(std::string_view text, Json* out) {
  Reader r{text.data(), text.data() + text.size()};
  *out = Json();
  if (!r.Value(out, 0)) return false;
  r.Space();
  return r.p == r.end;
}

std::string JsonQuote(std::string_view text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace perfbench
