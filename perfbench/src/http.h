#ifndef PERFBENCH_HTTP_H_
#define PERFBENCH_HTTP_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

/// A blocking keep-alive HTTP/1.1 client for loopback, kept in the
/// benchmark so that the client side of every round trip stays fixed
/// while the server changes.
class HttpConn {
 public:
  explicit HttpConn(int port) : port_(port) {}
  ~HttpConn();
  HttpConn(const HttpConn&) = delete;
  HttpConn& operator=(const HttpConn&) = delete;

  /// Sends one request and reads the response. Returns false on a
  /// transport failure (after one reconnect attempt).
  bool RoundTrip(std::string_view method, std::string_view target,
                 std::string_view body, std::string_view content_type,
                 int* status, std::string* response_body);

 private:
  bool Connect();
  void Close();
  bool Once(const std::string& request, int* status, std::string* body);

  int port_;
  int fd_ = -1;
  std::string buffer_;
};

/// A small JSON value: enough to read the serve API's responses.
struct Json {
  enum Type { kNull, kBool, kNumber, kString, kArray, kObject } type = kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  /// The member `key` of an object, or a null value.
  const Json& operator[](std::string_view key) const;
  static bool Parse(std::string_view text, Json* out);
};

/// `text` as a JSON string literal.
std::string JsonQuote(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_HTTP_H_
