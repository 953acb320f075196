package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"spinnaker/internal/simtime"
)

// A Device is the stable-storage abstraction under a log segment. Append
// buffers bytes at the end of the device; Force makes every appended byte
// durable. The split mirrors the distinction the paper draws between log
// writes and log *forces* (§5: "3 log forces and 4 messages"; the commit
// message is recorded with a non-forced log write).
//
// Implementations must be safe for concurrent use.
type Device interface {
	// Append buffers p at the current end of the device and returns the
	// offset at which it was placed.
	Append(p []byte) (off int64, err error)
	// Force durably persists all bytes appended so far.
	Force() error
	// ReadAt reads from the device, including not-yet-forced bytes
	// (recovery only ever runs on a reopened device, where unforced bytes
	// are gone).
	ReadAt(p []byte, off int64) (int, error)
	// Size returns the number of appended bytes.
	Size() int64
	// Close releases the device.
	Close() error
}

// ErrDeviceFailed is returned by a device that has been failed by fault
// injection (simulating the disk failure of §6.1: the follower "has lost all
// its data because of a disk failure").
var ErrDeviceFailed = errors.New("wal: device failed")

// DeviceProfile models the latency behaviour of a logging device. The paper
// evaluates three: a dedicated SATA disk (Fig 9), a FusionIO SSD (Fig 13,
// App. D.4), and a main-memory log (Fig 16, App. D.6.2). Latencies here are
// scaled ~10x down from the hardware the paper used; the model keeps the same
// structure (per-force fixed cost + per-byte cost + occasional seek penalty).
type DeviceProfile struct {
	// Name identifies the profile.
	Name string
	// ForceLatency is the fixed cost of making appended bytes durable.
	ForceLatency time.Duration
	// BytesPerForceLatency adds ForcePerKB per KiB forced.
	ForcePerKB time.Duration
	// SeekPenalty is added to a force when the file system would have had
	// to update metadata as the log grows (paper App. C: Cassandra's log
	// manager lacks preallocated log files, causing unwanted seeks). It
	// is charged every SeekEvery forces; zero disables it.
	SeekPenalty time.Duration
	SeekEvery   int
}

// Standard profiles, selectable through the embedded API's LogDevice.
// Latencies sit a small constant factor below the paper's hardware (a SATA
// force with the primitive log manager's seeking cost them ~10-40ms; here
// ~7ms).
var (
	// DeviceHDD models the dedicated SATA logging disk of Appendix C with
	// the primitive log manager's seek behaviour (no preallocated log
	// files: file-system metadata updates cause extra seeks).
	DeviceHDD = DeviceProfile{
		Name:         "hdd",
		ForceLatency: 6 * time.Millisecond,
		ForcePerKB:   100 * time.Microsecond,
		SeekPenalty:  3 * time.Millisecond,
		SeekEvery:    12,
	}
	// DeviceSSD models the FusionIO ioXtreme flash device of App. D.4:
	// durable writes at a fraction of the disk's latency, no seeks.
	DeviceSSD = DeviceProfile{
		Name:         "ssd",
		ForceLatency: 2 * time.Millisecond,
		ForcePerKB:   10 * time.Microsecond,
	}
	// DeviceMem models the main-memory log of App. D.6.2: a force is a
	// memory copy; durability comes from committing to 2 of 3 memory
	// logs, with a background thread writing the log to disk.
	DeviceMem = DeviceProfile{
		Name:         "mem",
		ForceLatency: 50 * time.Microsecond,
	}
	// DeviceInstant has no simulated latency at all; unit tests use it so
	// they are fast and deterministic.
	DeviceInstant = DeviceProfile{Name: "instant"}
)

// MemDevice is an in-memory Device with simulated latency and crash
// semantics: bytes appended but not yet forced are lost by Crash, exactly
// like an OS buffer cache in front of a disk with its write-back cache
// disabled (App. C). It is the device used by in-process clusters.
type MemDevice struct {
	profile DeviceProfile

	// forceSerial serializes medium access: a real disk performs one
	// force at a time. It is distinct from mu so appends and reads can
	// proceed while a force is sleeping.
	forceSerial sync.Mutex

	mu      sync.Mutex
	chunks  [][]byte // memChunk bytes each: a growing segment never copies what it holds
	size    int      // bytes appended
	durable int      // bytes guaranteed to survive Crash
	forces  int64    // statistics: number of Force calls that hit the medium
	failed  bool
	closed  bool
}

const memChunk = 64 << 10

// NewMemDevice returns an empty in-memory device with the given profile.
func NewMemDevice(profile DeviceProfile) *MemDevice {
	return &MemDevice{profile: profile}
}

// Append implements Device. The contents of p are copied; p itself is not
// retained (the WAL's pooled encode scratch depends on this — see
// encodeScratch in log.go).
//
//spinnaker:noretain
func (d *MemDevice) Append(p []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return 0, ErrDeviceFailed
	}
	if d.closed {
		return 0, errors.New("wal: append to closed device")
	}
	off := int64(d.size)
	for len(p) > 0 {
		if d.size == len(d.chunks)*memChunk {
			d.chunks = append(d.chunks, make([]byte, memChunk))
		}
		n := copy(d.chunks[d.size/memChunk][d.size%memChunk:], p)
		p = p[n:]
		d.size += n
	}
	return off, nil
}

// Force implements Device. The simulated latency is charged while holding
// only forceSerial, so concurrent appends proceed but forces serialize, as
// on a real disk.
func (d *MemDevice) Force() error {
	d.forceSerial.Lock()
	defer d.forceSerial.Unlock()

	d.mu.Lock()
	if d.failed {
		d.mu.Unlock()
		return ErrDeviceFailed
	}
	pending := d.size - d.durable
	d.mu.Unlock()

	if pending < 0 {
		pending = 0
	}
	d.sleepForce(pending)

	d.mu.Lock()
	d.durable = d.size
	d.forces++
	d.mu.Unlock()
	return nil
}

func (d *MemDevice) sleepForce(pending int) {
	p := d.profile
	lat := p.ForceLatency
	if p.ForcePerKB > 0 && pending > 0 {
		lat += time.Duration(pending/1024) * p.ForcePerKB
	}
	if p.SeekPenalty > 0 && p.SeekEvery > 0 {
		d.mu.Lock()
		n := d.forces
		d.mu.Unlock()
		if n%int64(p.SeekEvery) == 0 {
			lat += p.SeekPenalty
		}
	}
	simtime.Sleep(lat)
}

// ReadAt implements Device.
func (d *MemDevice) ReadAt(p []byte, off int64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failed {
		return 0, ErrDeviceFailed
	}
	if off >= int64(d.size) {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && int(off)+n < d.size {
		pos := int(off) + n
		chunk := d.chunks[pos/memChunk][pos%memChunk:]
		n += copy(p[n:], chunk[:min(len(chunk), d.size-pos)])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Size implements Device.
func (d *MemDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(d.size)
}

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}

// Crash simulates a node crash: all bytes appended after the last Force are
// discarded. The device can continue to be used afterwards (it represents
// the on-disk state seen at restart).
func (d *MemDevice) Crash() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.size = d.durable
	keep := (d.size + memChunk - 1) / memChunk
	clear(d.chunks[keep:])
	d.chunks = d.chunks[:keep]
	d.closed = false
}

// Fail simulates a permanent disk failure: all data is lost and every
// subsequent operation returns ErrDeviceFailed until Repair is called.
func (d *MemDevice) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunks, d.size, d.durable = nil, 0, 0
	d.failed = true
}

// Repair makes a failed device usable again, empty (a replaced disk).
func (d *MemDevice) Repair() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.chunks, d.size, d.durable = nil, 0, 0
	d.failed = false
	d.closed = false
}

// Forces returns the number of medium forces performed (the group-commit
// tests count them through MemSegmentStore.TotalForces).
func (d *MemDevice) Forces() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.forces
}

// Durable returns the number of bytes that would survive a crash.
func (d *MemDevice) Durable() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.durable
}

// FileDevice is a Device backed by a real file, used by cmd/spinnaker-server
// when running a durable node on a local disk.
type FileDevice struct {
	mu   sync.Mutex
	f    *os.File
	size int64
}

// OpenFileDevice opens (creating if necessary) a file-backed device.
func OpenFileDevice(path string) (*FileDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open device: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat device: %w", err)
	}
	return &FileDevice{f: f, size: st.Size()}, nil
}

// Append implements Device. p is written out synchronously and not
// retained (see encodeScratch in log.go).
//
//spinnaker:noretain
func (d *FileDevice) Append(p []byte) (int64, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	off := d.size
	if _, err := d.f.WriteAt(p, off); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	d.size += int64(len(p))
	return off, nil
}

// Force implements Device.
func (d *FileDevice) Force() error {
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("wal: force: %w", err)
	}
	return nil
}

// ReadAt implements Device.
func (d *FileDevice) ReadAt(p []byte, off int64) (int, error) {
	return d.f.ReadAt(p, off)
}

// Size implements Device.
func (d *FileDevice) Size() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.size
}

// Close implements Device.
func (d *FileDevice) Close() error { return d.f.Close() }

var (
	_ Device = (*MemDevice)(nil)
	_ Device = (*FileDevice)(nil)
)
