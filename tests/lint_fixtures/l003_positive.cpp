// L003 positives: wall-clock reads outside util/log.
#include <chrono>
#include <ctime>

long stamps() {
  const auto wall = std::chrono::system_clock::now();   // L003
  const auto hr = std::chrono::high_resolution_clock::now();  // L003
  const std::time_t t = std::time(nullptr);             // L003
  std::tm* parts = std::localtime(&t);                  // L003
  return static_cast<long>(t) + parts->tm_sec +
         wall.time_since_epoch().count() + hr.time_since_epoch().count();
}
