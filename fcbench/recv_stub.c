/* Nonblocking datagram receive for the edge load generators.

   Unix.recv reports an empty socket by raising Unix_error, which
   allocates; a generator polling its socket would then fill the minor
   heap, and the server, which shares its domain, would pay for the
   collections.  This returns the datagram length, or -1 when nothing is queued, without
   allocating. */

#include <sys/types.h>
#include <sys/socket.h>
#include <caml/mlvalues.h>

value fcbench_recv_nb(value fd, value buf, value ofs, value len)
{
  ssize_t n = recv(Int_val(fd), (char *)Bytes_val(buf) + Long_val(ofs),
                   (size_t)Long_val(len), MSG_DONTWAIT);
  return Val_long(n < 0 ? -1 : n);
}
