#include "net/session.hpp"

#include <poll.h>

#include <utility>

#include "util/error.hpp"

namespace ps::net {

SessionTable::SessionTable(EventLoop& loop, SessionHandlers handlers,
                           TransportWrapper wrapper)
    : loop_(loop),
      handlers_(std::move(handlers)),
      wrapper_(std::move(wrapper)) {
  PS_REQUIRE(handlers_.on_frame != nullptr, "frame handler must be set");
}

void SessionTable::listen_unix(const std::string& path) {
  watch_listener(net::listen_unix(path));
}

void SessionTable::listen_tcp(std::uint16_t port) {
  watch_listener(net::listen_tcp(port, &tcp_port_));
}

void SessionTable::watch_listener(Listener listener) {
  listeners_.push_back(std::move(listener));
  const std::size_t index = listeners_.size() - 1;
  loop_.add_fd(listeners_.back().fd(), POLLIN, [this, index](short) {
    while (auto socket = listeners_[index].accept()) {
      admit(make_transport(std::move(*socket)));
    }
  });
}

void SessionTable::adopt(std::unique_ptr<Transport> transport) {
  PS_REQUIRE(transport != nullptr && transport->valid(),
             "cannot adopt an invalid transport");
  {
    const std::lock_guard<std::mutex> lock(adopt_mutex_);
    adopted_.push_back(std::move(transport));
  }
  loop_.wake();
}

void SessionTable::admit_adopted() {
  std::vector<std::unique_ptr<Transport>> adopted;
  {
    const std::lock_guard<std::mutex> lock(adopt_mutex_);
    adopted.swap(adopted_);
  }
  for (std::unique_ptr<Transport>& transport : adopted) {
    admit(std::move(transport));
  }
}

void SessionTable::admit(std::unique_ptr<Transport> transport) {
  if (wrapper_) {
    transport = wrapper_(std::move(transport));
    PS_REQUIRE(transport != nullptr && transport->valid(),
               "transport wrapper returned an invalid transport");
  }
  const int fd = add(std::move(transport));
  if (handlers_.on_open) {
    handlers_.on_open(fd);
  }
}

int SessionTable::add(std::unique_ptr<Transport> transport) {
  PS_REQUIRE(transport != nullptr && transport->valid(),
             "cannot add an invalid transport");
  const int fd = transport->fd();
  NetSession session;
  session.transport = std::move(transport);
  session.last_activity = Clock::now();
  map_.emplace(fd, std::move(session));
  loop_.add_fd(fd, POLLIN,
               [this, fd](short revents) { on_ready(fd, revents); });
  return fd;
}

NetSession* SessionTable::find(int fd) {
  const auto it = map_.find(fd);
  return it == map_.end() ? nullptr : &it->second;
}

bool SessionTable::contains(int fd) const {
  return map_.find(fd) != map_.end();
}

void SessionTable::close(int fd, CloseCause cause) {
  const auto it = map_.find(fd);
  if (it == map_.end()) {
    return;
  }
  loop_.remove_fd(fd);
  NetSession session = std::move(it->second);
  map_.erase(it);
  if (handlers_.on_close) {
    handlers_.on_close(fd, session, cause);
  }
  session.transport->close();
}

bool SessionTable::remove(int fd) {
  const auto it = map_.find(fd);
  if (it == map_.end()) {
    return false;
  }
  loop_.remove_fd(fd);
  it->second.transport->close();
  map_.erase(it);
  return true;
}

void SessionTable::on_ready(int fd, short revents) {
  NetSession* session = find(fd);
  if (session == nullptr) {
    return;
  }
  session->last_activity = Clock::now();
  if ((revents & POLLOUT) != 0) {
    flush(fd, *session);
    session = find(fd);
    if (session == nullptr) {
      return;  // the flush found the peer dead
    }
  }
  if ((revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
    return;
  }
  char buffer[4096];
  for (;;) {
    const IoResult result =
        session->transport->read_some(buffer, sizeof(buffer));
    if (result.status == IoStatus::kWouldBlock) {
      break;
    }
    if (result.status == IoStatus::kClosed) {
      close(fd, CloseCause::kPeer);
      return;
    }
    try {
      session->decoder.feed(std::string_view(buffer, result.bytes));
      while (auto payload = session->decoder.next()) {
        handlers_.on_frame(fd, *session, *payload);
        session = find(fd);
        if (session == nullptr) {
          return;  // a reply hit a dead peer and closed this session
        }
      }
    } catch (const Error&) {
      // Oversized frame, checksum mismatch, or malformed message: the
      // stream offset can no longer be trusted, drop the connection.
      close(fd, CloseCause::kProtocolError);
      return;
    }
  }
  if (handlers_.on_drained) {
    handlers_.on_drained();
  }
}

void SessionTable::queue_frame(int fd, NetSession& session,
                               std::string_view frame) {
  session.outbox.append(frame);
  if (corked_) {
    pending_flush_.push_back(fd);
    return;
  }
  flush(fd, session);
}

void SessionTable::flush(int fd, NetSession& session) {
  while (!session.outbox.empty()) {
    const IoResult result = session.transport->write_some(session.outbox);
    if (result.status == IoStatus::kOk) {
      session.outbox.erase(0, result.bytes);
      continue;
    }
    if (result.status == IoStatus::kWouldBlock) {
      loop_.set_events(fd, POLLIN | POLLOUT);
      return;
    }
    close(fd, CloseCause::kPeer);
    return;
  }
  loop_.set_events(fd, POLLIN);
}

std::size_t SessionTable::broadcast(std::string_view frame) {
  const Batch batch(*this);
  std::size_t queued = 0;
  for (auto& [fd, session] : map_) {
    if (session.registered) {
      queue_frame(fd, session, frame);  // only appends inside the batch
      ++queued;
    }
  }
  return queued;
}

void SessionTable::sweep_idle(std::chrono::milliseconds idle_timeout) {
  const auto now = Clock::now();
  std::vector<int> expired;
  for (const auto& [fd, session] : map_) {
    if (!session.upstream && now - session.last_activity > idle_timeout) {
      expired.push_back(fd);
    }
  }
  for (const int fd : expired) {
    close(fd, CloseCause::kIdle);
  }
}

void SessionTable::flush_pending() {
  // A flush may close sessions (erasing map entries) or queue follow-up
  // frames (repopulating pending_flush_), so drain by swapping and
  // re-finding every fd rather than holding iterators.
  while (!pending_flush_.empty()) {
    std::vector<int> fds;
    fds.swap(pending_flush_);
    for (const int fd : fds) {
      const auto it = map_.find(fd);
      if (it == map_.end() || it->second.outbox.empty()) {
        continue;  // closed meanwhile, or an earlier pass drained it
      }
      flush(fd, it->second);
    }
  }
}

SessionTable::Batch::Batch(SessionTable& table)
    : table_(table), engaged_(!table.corked_) {
  table.corked_ = true;
}

SessionTable::Batch::~Batch() noexcept(false) {
  if (!engaged_) {
    return;
  }
  table_.corked_ = false;
  table_.flush_pending();
}

}  // namespace ps::net
