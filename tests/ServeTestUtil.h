//===- tests/ServeTestUtil.h - In-process compile-server harness -*- C++ -*-===//
//
// Part of the gcomm project: a reproduction of "Global Communication
// Analysis and Optimization" (Chakrabarti, Gupta, Choi; PLDI 1996).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test harness for driver/Serve.h: an in-process CompileServer whose
/// clients connect over socketpairs — no filesystem socket, no subprocess,
/// and full control of both stream ends, so tests can cut a connection
/// mid-frame, pipeline requests, or inject wire faults deterministically.
///
//===----------------------------------------------------------------------===//

#ifndef GCA_TESTS_SERVETESTUTIL_H
#define GCA_TESTS_SERVETESTUTIL_H

#include "driver/Serve.h"
#include "support/Frame.h"
#include "support/Json.h"

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace gca {
namespace servetest {

/// An in-process CompileServer serving socketpair connections.
class TestServer {
public:
  explicit TestServer(ServerConfig Config) : Server(std::move(Config)) {}

  ~TestServer() {
    Server.requestDrain();
    std::vector<std::thread> Joined;
    {
      std::lock_guard<std::mutex> L(ThreadsMu);
      Joined.swap(Threads);
    }
    for (std::thread &T : Joined)
      T.join();
    Server.wait();
  }

  /// Opens a new client connection; returns the client-side fd (the caller
  /// closes it). The server end is pumped by a dedicated thread, exactly
  /// like a connection accepted off the listening socket; it closes its fd
  /// when the connection ends, so clients observe a real EOF. Safe to call
  /// from several client threads at once.
  int connect() {
    int SV[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, SV) != 0)
      return -1;
    std::lock_guard<std::mutex> L(ThreadsMu);
    Threads.emplace_back([this, Fd = SV[0]] {
      Server.serveConnection(Fd, Fd);
      ::close(Fd);
    });
    return SV[1];
  }

  CompileServer &server() { return Server; }

private:
  CompileServer Server;
  std::mutex ThreadsMu;
  std::vector<std::thread> Threads; ///< Guarded by ThreadsMu.
};

/// Reads one response frame and parses it. Null on any failure.
inline JsonValue recvJson(int Fd) {
  std::string Wire;
  if (readFrame(Fd, Wire) != FrameStatus::Ok)
    return JsonValue::makeNull();
  JsonValue Doc;
  std::string Err;
  if (!JsonValue::parse(Wire, Doc, Err))
    return JsonValue::makeNull();
  return Doc;
}

/// Sends \p Payload as a frame and reads one parsed response. Null on any
/// transport or parse failure.
inline JsonValue sendRecv(int Fd, const std::string &Payload) {
  if (writeFrame(Fd, Payload) != FrameStatus::Ok)
    return JsonValue::makeNull();
  return recvJson(Fd);
}

inline std::string status(const JsonValue &Resp) {
  const JsonValue *S = Resp.get("status");
  return S && S->isString() ? S->stringValue() : std::string();
}

inline std::string output(const JsonValue &Resp) {
  const JsonValue *O = Resp.get("output");
  return O && O->isString() ? O->stringValue() : std::string();
}

inline int64_t respId(const JsonValue &Resp) {
  const JsonValue *I = Resp.get("id");
  return I ? I->intValue(-1) : -1;
}

/// True when \p Fd becomes readable within \p TimeoutMs (fuzz harness: a
/// mutated frame may legitimately earn no response, and the client must not
/// block forever waiting for one).
inline bool readableWithin(int Fd, int TimeoutMs) {
  struct pollfd P = {Fd, POLLIN, 0};
  return ::poll(&P, 1, TimeoutMs) > 0 &&
         (P.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
}

} // namespace servetest
} // namespace gca

#endif // GCA_TESTS_SERVETESTUTIL_H
