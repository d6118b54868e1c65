/* Allocation-free probes for the profiler.
 *
 * The whole point of lib/prof's GC-delta accounting is that reading a
 * counter must not move the counter, so every probe returns an
 * [@unboxed] float: the value crosses into OCaml in a register and
 * nothing is boxed. The minor-words probe is the runtime's own
 * caml_gc_minor_words_unboxed, declared without [@@noalloc] on purpose:
 * native code publishes its minor-heap pointer to the domain state only
 * through caml_c_call or a GC entry, and a noalloc call skips both, so
 * it would read a stale pointer. These two stubs read counters that no
 * inline allocation touches (major words, the monotonic clock), so they
 * stay [@@noalloc].
 *
 * Formulas mirror runtime/gc_ctrl.c (OCaml 5.1).
 */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/domain_state.h>

double prof_major_words_unboxed(value unit)
{
  (void)unit;
  return (double)Caml_state->stat_major_words +
         (double)Caml_state->allocated_words;
}

CAMLprim value prof_major_words(value unit)
{
  return caml_copy_double(prof_major_words_unboxed(unit));
}

double prof_monotonic_ns_unboxed(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec * 1e9 + (double)ts.tv_nsec;
}

CAMLprim value prof_monotonic_ns(value unit)
{
  return caml_copy_double(prof_monotonic_ns_unboxed(unit));
}
