#include "src/machine/storage.h"

namespace guillotine {

StorageDevice::StorageDevice(u64 num_sectors, u32 sector_bytes, std::string name)
    : num_sectors_(num_sectors),
      sector_bytes_(sector_bytes),
      name_(std::move(name)),
      blocks_(num_sectors * sector_bytes, name_) {}

IoResponse StorageDevice::Handle(const IoRequest& request, Cycles /*now*/,
                                 Cycles& service_cycles) {
  IoResponse resp;
  resp.tag = request.tag;
  if (!powered_) {
    resp.status = 0xDEAD;
    service_cycles = 10;
    return resp;
  }
  switch (static_cast<StorageOpcode>(request.opcode)) {
    case StorageOpcode::kRead: {
      ByteReader reader(request.payload);
      u64 sector = 0;
      u32 count = 0;
      if (!reader.ReadU64(sector) || !reader.ReadU32(count) || count == 0) {
        resp.status = 1;
        service_cycles = 50;
        return resp;
      }
      if (!SectorsInRange(sector, count)) {
        resp.status = 2;
        service_cycles = 50;
        return resp;
      }
      resp.payload.resize(static_cast<size_t>(count) * sector_bytes_);
      blocks_.ReadBlock(sector * sector_bytes_, resp.payload).ok();  // in range
      // Seek + per-sector transfer model.
      service_cycles = 20'000 + static_cast<Cycles>(count) * 4'000;
      resp.status = 0;
      return resp;
    }
    case StorageOpcode::kWrite: {
      ByteReader reader(request.payload);
      u64 sector = 0;
      if (!reader.ReadU64(sector)) {
        resp.status = 1;
        service_cycles = 50;
        return resp;
      }
      const size_t data_len = request.payload.size() - 8;
      const u64 count = (data_len + sector_bytes_ - 1) / sector_bytes_;
      if (data_len == 0 || !SectorsInRange(sector, count)) {
        resp.status = 2;
        service_cycles = 50;
        return resp;
      }
      blocks_.WriteBlock(sector * sector_bytes_,
                         std::span<const u8>(request.payload).subspan(8))
          .ok();  // in range
      service_cycles = 20'000 + count * 4'000;
      resp.status = 0;
      return resp;
    }
    case StorageOpcode::kInfo: {
      PutU64(resp.payload, num_sectors_);
      PutU32(resp.payload, sector_bytes_);
      service_cycles = 100;
      resp.status = 0;
      return resp;
    }
  }
  resp.status = 0xFFFF;
  service_cycles = 10;
  return resp;
}

// `sector <= num_sectors_` keeps the byte offset from wrapping; the Dram
// bounds check covers the rest.
Status StorageDevice::WriteSectors(u64 sector, std::span<const u8> data) {
  if (sector > num_sectors_ || !blocks_.WriteBlock(sector * sector_bytes_, data).ok()) {
    return OutOfRange("storage write past end");
  }
  return OkStatus();
}

Status StorageDevice::ReadSectors(u64 sector, std::span<u8> out) const {
  if (sector > num_sectors_ || !blocks_.ReadBlock(sector * sector_bytes_, out).ok()) {
    return OutOfRange("storage read past end");
  }
  return OkStatus();
}

}  // namespace guillotine
