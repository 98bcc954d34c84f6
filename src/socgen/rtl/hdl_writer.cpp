#include "socgen/rtl/hdl_writer.hpp"

#include "socgen/common/strings.hpp"

namespace socgen::rtl {

HdlWriter& HdlWriter::operator<<(Identifier name) {
    appendIdentifier(text_, name.text);
    return *this;
}

NetNames::NetNames(const Netlist& netlist, char prefix) {
    const auto& nets = netlist.nets();
    std::size_t bytes = 0;
    for (const Net& net : nets) {
        bytes += net.name.size() + 13;  // prefix, up to 10 id digits, '_', a leading 'x'
    }
    HdlWriter names(bytes);
    begin_.reserve(nets.size() + 1);
    for (NetId id = 0; id < nets.size(); ++id) {
        begin_.push_back(names.size());
        names << prefix << id << '_' << Identifier{nets[id].name};
    }
    begin_.push_back(names.size());
    text_ = names.take();
}

} // namespace socgen::rtl
