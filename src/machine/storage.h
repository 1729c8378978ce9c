// Block storage device behind the port API. Used by the RAG example and by
// the model service substrate for checkpoint/embedding persistence.
#ifndef SRC_MACHINE_STORAGE_H_
#define SRC_MACHINE_STORAGE_H_

#include "src/machine/device.h"
#include "src/mem/dram.h"

namespace guillotine {

enum class StorageOpcode : u32 {
  kRead = 1,   // payload: [sector u64][count u32]; response: data
  kWrite = 2,  // payload: [sector u64][data]; response: empty
  kInfo = 3,   // response: [num_sectors u64][sector_bytes u32]
};

class StorageDevice : public Device {
 public:
  StorageDevice(u64 num_sectors, u32 sector_bytes = 512, std::string name = "disk0");

  DeviceType type() const override { return DeviceType::kStorage; }
  const std::string& name() const override { return name_; }
  u64 num_sectors() const { return num_sectors_; }
  u32 sector_bytes() const { return sector_bytes_; }

  IoResponse Handle(const IoRequest& request, Cycles now,
                    Cycles& service_cycles) override;

  // Out-of-band accessors for test/bench setup (loading datasets onto the
  // "disk" before the model boots). `data` / `out` may end mid-sector.
  Status WriteSectors(u64 sector, std::span<const u8> data);
  Status ReadSectors(u64 sector, std::span<u8> out) const;

 private:
  // True when sectors [sector, sector + count) exist; never wraps.
  bool SectorsInRange(u64 sector, u64 count) const {
    return sector <= num_sectors_ && count <= num_sectors_ - sector;
  }

  u64 num_sectors_;
  u32 sector_bytes_;
  std::string name_;
  Dram blocks_;  // lazily zeroed: a fresh disk costs only the sectors written
};

}  // namespace guillotine

#endif  // SRC_MACHINE_STORAGE_H_
