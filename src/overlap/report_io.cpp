#include "overlap/report_io.hpp"

#include <fstream>

namespace ovp::overlap {

namespace {

void setError(std::string* error, const std::string& message) {
  if (error != nullptr) *error = message;
}

}  // namespace

std::string ReportIo::rankPath(const std::string& prefix, Rank rank) {
  return prefix + ".rank" + std::to_string(rank) + ".ovp";
}

bool ReportIo::saveAll(const std::vector<Report>& reports,
                       const std::string& prefix) {
  for (const Report& r : reports) {
    if (!r.saveFile(rankPath(prefix, r.rank))) return false;
  }
  return true;
}

bool ReportIo::loadAll(const std::string& prefix, std::vector<Report>& out,
                       std::string* error) {
  out.clear();
  for (Rank rank = 0;; ++rank) {
    const std::string path = rankPath(prefix, rank);
    std::ifstream is(path);
    if (!is) {
      if (rank == 0) {
        setError(error, "no report files at " + rankPath(prefix, 0));
        return false;
      }
      return true;
    }
    Report r;
    if (!r.load(is)) {
      setError(error, "malformed report file " + path);
      out.clear();
      return false;
    }
    out.push_back(std::move(r));
  }
}

bool ReportIo::loadFiles(const std::vector<std::string>& paths,
                         std::vector<Report>& out, std::string* error) {
  out.clear();
  for (const std::string& path : paths) {
    Report r;
    if (!r.loadFile(path)) {
      setError(error, "cannot load report file " + path);
      out.clear();
      return false;
    }
    out.push_back(std::move(r));
  }
  return true;
}

}  // namespace ovp::overlap
