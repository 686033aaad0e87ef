package main

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"

	"dtio/internal/dataloop"
	"dtio/internal/datatype"
	"dtio/internal/flatten"
	"dtio/internal/mpiio"
	"dtio/internal/pvfs"
	"dtio/internal/transport"
	"dtio/internal/workloads"
)

// call is one MPI-IO call of a workload: rank's access to one frame
// (tile-read) or to its whole block or checkpoint slice.
type call struct {
	rank, frame int
	write       bool
}

// workload is one access pattern. open runs on every fresh cluster;
// the oracle state built by the constructor is shared by all of them.
type workload interface {
	// open creates the workload's file, lays down its initial contents
	// and sets every rank's file view.
	open(env transport.Env, cl *pvfs.Client) error
	// distinct lists every distinct call once, in a fixed order.
	distinct() []call
	// do issues c and returns the useful bytes it moved.
	do(env transport.Env, c call) (int64, error)
	// check verifies the bytes the last read call returned.
	check(c call) error
	// finish verifies the file's final contents.
	finish(env transport.Env) error
	// types returns the file view and memory type of each rank.
	types() (views []*datatype.Type, mem *datatype.Type)
}

// sizes fixes the workload dimensions of one run mode.
type sizes struct {
	tile  workloads.TileConfig // Frames is the movie length
	b3    workloads.Block3DConfig
	flash workloads.FlashConfig
}

// fullSizes: the paper's tile display frame (2532x1408x3) in an
// 8-frame movie; a 128^3 array of 1-byte elements over 8 ranks (64^3
// blocks, rows of 64 B); 1 MiB FLASH checkpoint slices with 8-byte
// memory runs over 8 ranks.
func fullSizes() sizes {
	tile := workloads.DefaultTile()
	tile.Frames = 8
	return sizes{
		tile:  tile,
		b3:    workloads.Block3DConfig{N: 128, ElemSize: 1, Procs: 8},
		flash: workloads.FlashConfig{Blocks: 16, NB: 8, Guard: 2, Vars: 16, ElemSize: 8, Procs: 8},
	}
}

// smokeSizes keeps every pattern's shape at a fraction of the bytes,
// for the self-tests.
func smokeSizes() sizes {
	return sizes{
		tile: workloads.TileConfig{
			TilesX: 3, TilesY: 2, TileW: 64, TileH: 48,
			Depth: 3, OverlapX: 16, OverlapY: 8, Frames: 2,
		},
		b3:    workloads.Block3DConfig{N: 32, ElemSize: 1, Procs: 8},
		flash: workloads.FlashConfig{Blocks: 2, NB: 4, Guard: 2, Vars: 4, ElemSize: 8, Procs: 2},
	}
}

var workloadNames = []string{"tile-read", "block3d-dtype", "block3d-list", "flash-ckpt"}

// newWorkload builds the named workload and its oracle. The seed fixes
// the block and checkpoint contents; call order comes from sequence.
func newWorkload(name string, sz sizes, seed int64) (workload, error) {
	switch name {
	case "tile-read":
		return newTile(sz.tile), nil
	case "block3d-dtype":
		return newBlock3D(sz.b3, mpiio.DtypeIO, seed), nil
	case "block3d-list":
		return newBlock3D(sz.b3, mpiio.ListIO, seed), nil
	case "flash-ckpt":
		return newFlash(sz.flash, seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

// sequence returns the call order: back-to-back seeded permutations of
// the distinct calls, so every op type and rank is issued equally often.
func sequence(w workload, seed int64) func() call {
	rng := rand.New(rand.NewSource(seed))
	d := w.distinct()
	var perm []int
	return func() call {
		if len(perm) == 0 {
			perm = rng.Perm(len(d))
		}
		c := d[perm[0]]
		perm = perm[1:]
		return c
	}
}

// openFile creates name striped over every server and wraps it once per
// view, as each MPI rank sets its view once and then issues calls.
func openFile(env transport.Env, cl *pvfs.Client, name string, method mpiio.Method, views []*datatype.Type) (*pvfs.File, []*mpiio.File, error) {
	pv, err := cl.Create(env, name, stripBytes, 0)
	if err != nil {
		return nil, nil, fmt.Errorf("create %s: %w", name, err)
	}
	files := make([]*mpiio.File, len(views))
	for r, v := range views {
		files[r] = mpiio.Open(pv, nil, method, mpiio.DefaultHints())
		if err := files[r].SetView(0, datatype.Byte, v); err != nil {
			return nil, nil, fmt.Errorf("set view of rank %d: %w", r, err)
		}
	}
	return pv, files, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// tileRead: ranks read their overlapping tile of one movie frame.
type tileRead struct {
	cfg   workloads.TileConfig
	views []*datatype.Type
	mem   *datatype.Type
	want  [][]uint32 // CRC-32C of the expected tile, by rank and frame
	buf   []byte
	files []*mpiio.File
}

func newTile(cfg workloads.TileConfig) *tileRead {
	t := &tileRead{cfg: cfg, mem: datatype.Bytes(cfg.TileBytes()), buf: make([]byte, cfg.TileBytes())}
	t.want = make([][]uint32, cfg.NumClients())
	for r := range t.want {
		t.views = append(t.views, cfg.View(r))
		regs := flatten.NewIter(dataloop.FromType(t.views[r]), 1, 0, true).Collect()
		for f := 0; f < cfg.Frames; f++ {
			var crc uint32
			for _, reg := range regs {
				row := t.buf[:reg.Len]
				for i := range row {
					row[i] = workloads.FramePixel(f, reg.Off+int64(i))
				}
				crc = crc32.Update(crc, castagnoli, row)
			}
			t.want[r] = append(t.want[r], crc)
		}
	}
	return t
}

func (t *tileRead) open(env transport.Env, cl *pvfs.Client) error {
	pv, files, err := openFile(env, cl, "tile.dat", mpiio.DtypeIO, t.views)
	if err != nil {
		return err
	}
	frame := make([]byte, t.cfg.FrameBytes())
	for f := 0; f < t.cfg.Frames; f++ {
		workloads.FillFrame(f, frame)
		if err := pv.WriteContig(env, int64(f)*t.cfg.FrameBytes(), frame); err != nil {
			return fmt.Errorf("lay down frame %d: %w", f, err)
		}
	}
	t.files = files
	return nil
}

func (t *tileRead) distinct() []call {
	var out []call
	for r := range t.views {
		for f := 0; f < t.cfg.Frames; f++ {
			out = append(out, call{rank: r, frame: f})
		}
	}
	return out
}

func (t *tileRead) do(env transport.Env, c call) (int64, error) {
	off := int64(c.frame) * t.cfg.TileBytes()
	return t.cfg.TileBytes(), t.files[c.rank].ReadAt(env, off, t.buf, t.mem, 1)
}

// check compares a CRC-32C of every byte read with the oracle's.
func (t *tileRead) check(c call) error {
	if got := crc32.Checksum(t.buf, castagnoli); got != t.want[c.rank][c.frame] {
		return fmt.Errorf("tile rank %d frame %d: crc32c %08x, want %08x", c.rank, c.frame, got, t.want[c.rank][c.frame])
	}
	return nil
}

func (t *tileRead) finish(transport.Env) error { return nil }

func (t *tileRead) types() ([]*datatype.Type, *datatype.Type) { return t.views, t.mem }

// block3D: ranks write or read their 3-D subarray block, 1:1. Each
// write flips the rank's block between two seeded versions, so a read
// checks that the latest write landed, byte for byte.
type block3D struct {
	cfg    workloads.Block3DConfig
	method mpiio.Method
	views  []*datatype.Type
	mem    *datatype.Type
	data   [][2][]byte // [rank][version]
	cur    []int       // version each rank's block holds
	buf    []byte
	files  []*mpiio.File
}

func newBlock3D(cfg workloads.Block3DConfig, method mpiio.Method, seed int64) *block3D {
	b := &block3D{cfg: cfg, method: method, mem: datatype.Bytes(cfg.BlockBytes()), buf: make([]byte, cfg.BlockBytes())}
	salt := byte(rand.New(rand.NewSource(seed)).Intn(256))
	bb := cfg.BlockBytes()
	for r := 0; r < cfg.Procs; r++ {
		b.views = append(b.views, cfg.View(r))
		var d [2][]byte
		for v := range d {
			d[v] = make([]byte, bb)
			s := salt ^ byte(0x5A*v)
			for i := range d[v] {
				d[v][i] = workloads.Block3DElem(int64(r)*bb+int64(i)) ^ s
			}
		}
		b.data = append(b.data, d)
	}
	b.cur = make([]int, cfg.Procs)
	return b
}

func (b *block3D) open(env transport.Env, cl *pvfs.Client) error {
	_, files, err := openFile(env, cl, "b3.dat", b.method, b.views)
	if err != nil {
		return err
	}
	b.files = files
	for r := range b.views {
		if err := files[r].WriteAt(env, 0, b.data[r][0], b.mem, 1); err != nil {
			return fmt.Errorf("lay down block %d: %w", r, err)
		}
		b.cur[r] = 0
	}
	return nil
}

func (b *block3D) distinct() []call {
	var out []call
	for r := range b.views {
		out = append(out, call{rank: r, write: true}, call{rank: r})
	}
	return out
}

func (b *block3D) do(env transport.Env, c call) (int64, error) {
	f := b.files[c.rank]
	if !c.write {
		return b.cfg.BlockBytes(), f.ReadAt(env, 0, b.buf, b.mem, 1)
	}
	v := 1 - b.cur[c.rank]
	if err := f.WriteAt(env, 0, b.data[c.rank][v], b.mem, 1); err != nil {
		return b.cfg.BlockBytes(), err
	}
	b.cur[c.rank] = v
	return b.cfg.BlockBytes(), nil
}

func (b *block3D) check(c call) error {
	want := b.data[c.rank][b.cur[c.rank]]
	if !bytes.Equal(b.buf, want) {
		i := 0
		for b.buf[i] == want[i] {
			i++
		}
		return fmt.Errorf("block %d byte %d: got %#x, want %#x", c.rank, i, b.buf[i], want[i])
	}
	return nil
}

func (b *block3D) finish(transport.Env) error { return nil }

func (b *block3D) types() ([]*datatype.Type, *datatype.Type) { return b.views, b.mem }

// flashCkpt: ranks write their guard-celled checkpoint slice. Like
// block3D, each write flips the rank's slice between two seeded
// versions, so the file changes on every write and a lost last write
// shows; the file is checked against the oracle when the run ends.
type flashCkpt struct {
	cfg   workloads.FlashConfig
	views []*datatype.Type
	mem   *datatype.Type
	mask  [2]byte     // XORed into the oracle bytes of each version
	data  [][2][]byte // [rank][version] memory image, guard cells included
	cur   []int       // version each rank's slice holds
	pv    *pvfs.File
	files []*mpiio.File
}

func newFlash(cfg workloads.FlashConfig, seed int64) *flashCkpt {
	salt := byte(rand.New(rand.NewSource(seed)).Intn(256))
	fl := &flashCkpt{cfg: cfg, mem: cfg.MemType(), mask: [2]byte{salt, salt ^ 0x5A}}
	for r := 0; r < cfg.Procs; r++ {
		fl.views = append(fl.views, cfg.FileType(r))
		var d [2][]byte
		for v := range d {
			d[v] = make([]byte, cfg.MemBytes())
			cfg.FillMemory(r, d[v])
			for i := range d[v] {
				d[v][i] ^= fl.mask[v]
			}
		}
		fl.data = append(fl.data, d)
	}
	fl.cur = make([]int, cfg.Procs)
	return fl
}

func (fl *flashCkpt) open(env transport.Env, cl *pvfs.Client) error {
	pv, files, err := openFile(env, cl, "flash.dat", mpiio.DtypeIO, fl.views)
	fl.pv, fl.files = pv, files
	for r := range fl.cur {
		fl.cur[r] = 1 // the warm-up writes version 0
	}
	return err
}

func (fl *flashCkpt) distinct() []call {
	var out []call
	for r := range fl.views {
		out = append(out, call{rank: r, write: true})
	}
	return out
}

func (fl *flashCkpt) do(env transport.Env, c call) (int64, error) {
	v := 1 - fl.cur[c.rank]
	if err := fl.files[c.rank].WriteAt(env, 0, fl.data[c.rank][v], fl.mem, 1); err != nil {
		return fl.cfg.BytesPerClient(), err
	}
	fl.cur[c.rank] = v
	return fl.cfg.BytesPerClient(), nil
}

func (fl *flashCkpt) check(call) error { return nil }

// finish reads the whole checkpoint back and checks every byte against
// the oracle, in the version its rank last wrote. Each variable's
// segment of the file holds the ranks' slices in rank order.
func (fl *flashCkpt) finish(env transport.Env) error {
	back := make([]byte, fl.cfg.TotalBytes())
	if err := fl.pv.ReadContig(env, 0, back); err != nil {
		return fmt.Errorf("read checkpoint back: %w", err)
	}
	perRankVar := int64(fl.cfg.Blocks) * fl.cfg.InteriorElems() * int64(fl.cfg.ElemSize)
	for i, got := range back {
		rank := int64(i) / perRankVar % int64(fl.cfg.Procs)
		if want := fl.cfg.FileOracle(int64(i)) ^ fl.mask[fl.cur[rank]]; got != want {
			return fmt.Errorf("checkpoint byte %d (rank %d): got %#x, want %#x", i, rank, got, want)
		}
	}
	return nil
}

func (fl *flashCkpt) types() ([]*datatype.Type, *datatype.Type) { return fl.views, fl.mem }
