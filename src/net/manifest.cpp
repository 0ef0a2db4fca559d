#include "net/manifest.hpp"

#include <fstream>
#include <sstream>

#include "common/spec.hpp"

namespace dooc::net {

std::string NodeAddress::to_string() const {
  if (kind == Kind::Unix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

NodeAddress NodeAddress::parse(const std::string& spec) {
  NodeAddress a;
  if (spec.rfind("unix:", 0) == 0) {
    a.kind = Kind::Unix;
    a.path = spec.substr(5);
    if (a.path.empty()) throw InvalidArgument("node address: empty unix socket path");
    // sockaddr_un limit; fail at parse time, not bind time.
    if (a.path.size() >= 100) {
      throw InvalidArgument("node address: unix socket path too long (" + a.path + ")");
    }
    return a;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    a.kind = Kind::Tcp;
    const std::string rest = spec.substr(4);
    const auto colon = rest.rfind(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 == rest.size()) {
      throw InvalidArgument("node address: tcp wants host:port, got '" + rest + "'");
    }
    a.host = rest.substr(0, colon);
    a.port = Spec::to_int<int>(std::string_view(rest).substr(colon + 1), "node address: tcp port",
                               1, 65535);
    return a;
  }
  throw InvalidArgument("node address: want unix:<path> or tcp:<host>:<port>, got '" + spec +
                        "'");
}

std::string Manifest::to_text() const {
  std::ostringstream os;
  os << "# dooc cluster manifest (" << nodes.size() << " nodes)\n";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    os << "node " << i << " " << nodes[i].to_string() << "\n";
  }
  return os.str();
}

void Manifest::write_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw IoError("cannot write manifest '" + path + "'");
  out << to_text();
  if (!out) throw IoError("short write to manifest '" + path + "'");
}

Manifest Manifest::parse(const std::string& text) {
  Manifest m;
  std::istringstream is(text);
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    std::istringstream ls(line);
    std::string word;
    int id = -1;
    std::string addr;
    if (!(ls >> word >> id >> addr) || word != "node") {
      throw InvalidArgument("manifest line " + std::to_string(lineno) +
                            ": want 'node <id> <address>', got '" + line + "'");
    }
    if (id != static_cast<int>(m.nodes.size())) {
      throw InvalidArgument("manifest line " + std::to_string(lineno) + ": node ids must be " +
                            "dense and ordered (expected " + std::to_string(m.nodes.size()) +
                            ", got " + std::to_string(id) + ")");
    }
    m.nodes.push_back(NodeAddress::parse(addr));
  }
  if (m.nodes.empty()) throw InvalidArgument("manifest names no nodes");
  return m;
}

Manifest Manifest::parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("cannot read manifest '" + path + "'");
  std::ostringstream os;
  os << in.rdbuf();
  return parse(os.str());
}

Manifest Manifest::local_unix(const std::string& dir, int num_nodes) {
  Manifest m;
  for (int i = 0; i < num_nodes; ++i) {
    NodeAddress a;
    a.kind = NodeAddress::Kind::Unix;
    a.path = dir + "/n" + std::to_string(i) + ".sock";
    if (a.path.size() >= 100) {
      throw InvalidArgument("manifest: unix socket path too long: " + a.path);
    }
    m.nodes.push_back(std::move(a));
  }
  return m;
}

Manifest Manifest::local_tcp(int base_port, int num_nodes) {
  Manifest m;
  for (int i = 0; i < num_nodes; ++i) {
    NodeAddress a;
    a.kind = NodeAddress::Kind::Tcp;
    a.host = "127.0.0.1";
    a.port = base_port + i;
    m.nodes.push_back(std::move(a));
  }
  return m;
}

}  // namespace dooc::net
