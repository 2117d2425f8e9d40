/* CPU affinity of the calling thread, for perfbench/affinity.ml. */

#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/alloc.h>

/* The CPUs the calling thread may run on, ascending; empty if the
   kernel does not say. */
value perfbench_allowed_cpus(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(cpus);
  cpu_set_t set;
  int n = 0, i, k = 0;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    n = CPU_COUNT(&set);
  if (n == 0) CAMLreturn(Atom(0));
  cpus = caml_alloc_tuple(n);
  for (i = 0; i < CPU_SETSIZE && k < n; i++)
    if (CPU_ISSET(i, &set)) Store_field(cpus, k++, Val_int(i));
  CAMLreturn(cpus);
}

/* Restrict the calling thread to the given CPUs; false if refused. */
value perfbench_set_cpus(value cpus)
{
  cpu_set_t set;
  mlsize_t i;
  CPU_ZERO(&set);
  for (i = 0; i < Wosize_val(cpus); i++) {
    long c = Long_val(Field(cpus, i));
    if (c >= 0 && c < CPU_SETSIZE) CPU_SET(c, &set);
  }
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
