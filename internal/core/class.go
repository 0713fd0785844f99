package core

import "math/bits"

// ClassOf returns the size class of a size-w object: the unique c with
// 2^c <= w < 2^(c+1). Sizes must be >= 1; ClassOf(0) returns -1 as a
// sentinel.
func ClassOf(w int64) int {
	if w <= 0 {
		return -1
	}
	return bits.Len64(uint64(w)) - 1
}

// numClasses bounds the classes of positive int64 sizes: ClassOf(w) <
// numClasses for every w >= 1.
const numClasses = 64

// ClassMin returns the smallest size in class c.
func ClassMin(c int) int64 { return int64(1) << uint(c) }

// ClassMax returns the largest size in class c.
func ClassMax(c int) int64 { return int64(1)<<uint(c+1) - 1 }
