#include "socgen/rtl/compose.hpp"

#include "socgen/common/error.hpp"
#include "socgen/common/strings.hpp"

#include <algorithm>
#include <vector>

namespace socgen::rtl {

std::map<std::string, NetId> flattenInto(Netlist& dst, const Netlist& src,
                                         std::string_view prefix,
                                         const std::map<std::string, NetId>& portBind) {
    // Port-net remaps requested by the caller, validated against the
    // instance's signature up front. kInvalid entries get fresh nets.
    std::vector<NetId> netMap(src.nets().size(), kInvalid);
    struct Alias {
        NetId canonical;  ///< dst net the shared src net resolves to
        NetId extra;      ///< additional dst net that must carry the value
        unsigned width;
        std::string port;
    };
    std::vector<Alias> aliases;
    for (const auto& [portName, dstNet] : portBind) {
        const auto it = std::ranges::find(src.ports(), portName, &Port::name);
        if (it == src.ports().end()) {
            throw Error("flatten: instance '" + src.name() + "' has no port '" + portName +
                        "'");
        }
        const Port& port = *it;
        if (dst.net(dstNet).width != port.width) {
            throw Error("flatten: port '" + portName + "' of '" + src.name() + "' is " +
                        std::to_string(port.width) + " bit(s) but the bound net '" +
                        dst.net(dstNet).name + "' is " +
                        std::to_string(dst.net(dstNet).width));
        }
        NetId& mapped = netMap[port.net];
        if (mapped == kInvalid) {
            mapped = dstNet;
        } else if (mapped != dstNet) {
            if (port.dir == PortDir::Out) {
                // Two output ports exposing the same internal net (e.g. a
                // kernel writing two streams from one FSM state shares the
                // tvalid select net between both ports): keep the first
                // mapping canonical and fan the extra binding out through
                // a buffer so both parent nets carry the value.
                aliases.push_back(Alias{mapped, dstNet, port.width, portName});
                continue;
            }
            throw Error("flatten: port '" + portName + "' of '" + src.name() +
                        "' shares a net with another bound port mapped elsewhere");
        }
    }

    // Nets, pins and cells in one pass; re-deriving drivers in dst is what
    // wires a bound output port to the parent net.
    dst.appendInstance(src, prefix, netMap);

    // Fan shared output ports out to their extra parent nets (x | x = x).
    for (const Alias& alias : aliases) {
        dst.addCell(concat(prefix, "alias_", alias.port), CellKind::Or, alias.width,
                    {alias.canonical, alias.canonical}, {alias.extra});
    }

    std::map<std::string, NetId> portNets;
    for (const Port& port : src.ports()) {
        portNets[port.name] = netMap[port.net];
    }
    // Aliased ports resolve to their own bound net, not the canonical one.
    for (const Alias& alias : aliases) {
        portNets[alias.port] = alias.extra;
    }
    return portNets;
}

} // namespace socgen::rtl
