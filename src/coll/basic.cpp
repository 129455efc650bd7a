// Rooted collectives: the binomial broadcast.
//
// The tree lives in schedule.cpp as a Schedule builder; the blocking entry
// point here is a build + start + wait wrapper around ibcast. The binomial
// reduce under allreduce is the same kind of wrapper, templated on the
// element type in collectives.hpp.
#include "coll/collectives.hpp"

namespace nncomm::coll {

void bcast(rt::Comm& comm, void* buf, std::size_t count, const dt::Datatype& type, int root) {
    ibcast(comm, buf, count, type, root).wait();
}

}  // namespace nncomm::coll
