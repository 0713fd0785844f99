// Package core implements the cost-oblivious storage reallocation
// algorithms of Bender, Farach-Colton, Fekete, Fineman, and Gilbert,
// "Cost-Oblivious Storage Reallocation" (PODS 2014).
//
// The package provides one engine with three variants:
//
//   - Amortized (Section 2): footprint at most (1+ε)·V after every
//     request; amortized reallocation cost O(f(w)·(1/ε)·log(1/ε)) for every
//     monotonically increasing subadditive cost function f simultaneously.
//     Flushes run atomically inside the triggering request and moves have
//     memmove semantics (a move may overlap its own source).
//   - Checkpointed (Section 3.2): same bounds in the database model:
//     every move's target is disjoint from its source and from all live
//     data, space freed since the last checkpoint is never rewritten, and
//     each flush blocks on O(1/ε) checkpoints. Footprint grows by an
//     additive O(∆) term while a flush is in progress.
//   - Deamortized (Section 3.3): additionally bounds the worst-case work
//     per request: inserting or deleting a size-w object reallocates at
//     most (4/ε')·w + ∆ volume, hence costs O((1/ε)·w·f(1) + f(∆)) under
//     any subadditive f. A tail buffer delays the next flush and a log
//     absorbs updates that arrive while a flush is in progress.
//
// # Data structure
//
// Objects are grouped into size classes: class c holds sizes in
// [2^c, 2^(c+1)). The address space is a concatenation, in increasing
// class order, of regions; region c is a payload segment (exactly the
// class-c volume at its last flush) followed by a buffer segment of
// ⌊ε'·V(c)⌋ cells. Inserts append to the earliest buffer of class ≥ c with
// room; deletes leave a payload hole and append a size-w dummy record to a
// buffer. When nothing has room, a buffer flush rebuilds a suffix of the
// regions: the boundary class b is the largest class such that everything
// buffered in classes ≥ b belongs to classes ≥ b, so a flush only ever
// moves objects at least as large (hence, by subadditivity, at least as
// cheap per unit) as the buffered objects that pay for it.
//
// The algorithm never evaluates a cost function — it is cost oblivious.
// It emits trace events; recorders price them after the fact.
//
// # Deviations from the paper
//
// The working-space offset for checkpointed flushes is
// max{L,L'} + B + ∆ + w (the paper uses max{L,L'} + B + ∆, without the
// size w of the flush-triggering insert). With the paper's offset there
// are small configurations in which the unpacking step would slide an
// object left by less than its own length, overlapping its old copy and
// violating the nonoverlap constraint the model demands (take one size-∆
// payload object, all buffer capacities rounded down to zero, and a
// size-1 trigger; packing ends at L+∆ and the lone object must slide ∆-1
// < ∆). The extra +w term restores a minimum slide of B+∆ ≥ any object
// size at the cost of at most one extra ∆ in the transient (mid-flush)
// footprint, leaving every asymptotic bound intact. Experiment E6
// reports the measured additive slack in its "transient slack / delta"
// column (`reallocbench -e E6`).
//
// The Section 2 flush reaches the paper's layout in one order-preserving
// sweep, where the paper compacts the flushed payload objects leftward
// and then expands them rightward. The final layout keeps the payload
// objects in address order, and a Section 2 move may overlap its own
// source, so each payload object can go straight to its slot:
// left-movers in ascending address order, and each maximal run of
// right-movers in descending order. No move lands on an object that has
// not moved yet. Every object before a left-mover already sits at its
// slot, which ends at or before the left-mover's slot; the left-mover's
// slot ends before its own old end, so before its successor's start. A
// right-mover's slot starts past its own old start, so past every
// unmoved object before it, and ends at or before the next slot; the
// object after it in the run already sits there, and the successor that
// ends the run stays or moves left, so it has not moved yet and starts
// at or after its slot. Buffered objects still make the paper's two
// moves, through the overflow segment. So each object moves no more
// often than the paper's schedule moves it, and since a move of a size-w
// object costs f(w) wherever it goes, the cost bound holds for every
// subadditive f.
package core
