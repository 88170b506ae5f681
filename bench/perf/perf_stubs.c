/* wait4(2) for the benchmark: the exit status of one child together
   with its own CPU time and peak resident set, which Unix.waitpid does
   not report. */

#define _GNU_SOURCE
#include <errno.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* perf_wait4 : int -> int * float * int
   (exit code, or minus the signal number that killed the child;
    user + system CPU seconds; ru_maxrss in KiB) */
CAMLprim value perf_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
  } while (r < 0 && errno == EINTR);
  caml_leave_blocking_section();
  if (r < 0) uerror("wait4", Nothing);
  res = caml_alloc_tuple(3);
  Store_field(res, 0,
              Val_int(WIFEXITED(status) ? WEXITSTATUS(status)
                      : WIFSIGNALED(status) ? -WTERMSIG(status) : -1));
  Store_field(res, 1,
              caml_copy_double((double)ru.ru_utime.tv_sec
                               + (double)ru.ru_utime.tv_usec / 1e6
                               + (double)ru.ru_stime.tv_sec
                               + (double)ru.ru_stime.tv_usec / 1e6));
  Store_field(res, 2, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}
