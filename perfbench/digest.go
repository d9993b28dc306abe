package main

import (
	"bytes"

	"srmsort"
)

// digest summarises a record sequence for the correctness checks: the
// count, an order-independent sum (equal for any permutation of the same
// records), an order-dependent hash (equal only for the same sequence)
// and whether the sequence is sorted.
type digest struct {
	n      int
	sum    uint64
	ord    uint64
	sorted bool
}

func mix(h uint64) uint64 {
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	return h
}

func (d *digest) add(h uint64, inOrder bool) {
	h = mix(h)
	d.n++
	d.sum += h
	d.ord = (d.ord ^ h) * 0x100000001b3
	d.sorted = d.sorted && inOrder
}

func digestFixed(rs []srmsort.Record) digest {
	d := digest{sorted: true}
	for i, r := range rs {
		d.add(r.Key*0x9e3779b97f4a7c15+r.Val*0xc2b2ae3d27d4eb4f, i == 0 || rs[i-1].Key <= r.Key)
	}
	return d
}

func hashBytes(h uint64, b []byte) uint64 {
	for _, c := range b {
		h = (h ^ uint64(c)) * 0x100000001b3
	}
	return h
}

// lessVar is the varlen record order: key bytes, then payload bytes.
func lessVar(a, b srmsort.VarRecord) bool {
	if c := bytes.Compare(a.Key, b.Key); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.Payload, b.Payload) < 0
}

func digestVar(rs []srmsort.VarRecord) digest {
	d := digest{sorted: true}
	for i, r := range rs {
		h := hashBytes(hashBytes(0xcbf29ce484222325, r.Key)^0xff, r.Payload)
		d.add(h, i == 0 || !lessVar(r, rs[i-1]))
	}
	return d
}

// sortedPermutationOf reports whether out is a sorted permutation of the
// input whose digest is in.
func (out digest) sortedPermutationOf(in digest) bool {
	return out.sorted && out.n == in.n && out.sum == in.sum
}
